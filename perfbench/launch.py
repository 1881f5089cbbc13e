"""Child-process launcher for run.py.

A child's `ru_maxrss` counts the resident set of the process that spawned
it, so run.py, which holds generated inputs and the checker's state, does
not spawn the timed commands itself: this small process does, and its own
size stays the same on every run.

Protocol, one JSON object per line. Request on stdin:
`{"args": [...], "cwd": "...", "stderr": "...", "timeout": 60}`; the child is
`sys.executable *args`. Reply on stdout: `{"seconds": wall seconds from spawn
to exit, "maxrss_kb": ..., "exit": exit code, or null when killed after
`timeout` seconds}`.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def spawn(args, cwd, stderr, timeout):
    with open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    hung = seconds >= timeout
    return {"seconds": seconds, "maxrss_kb": usage.ru_maxrss,
            "exit": None if hung else proc.returncode}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["args"], request["cwd"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
