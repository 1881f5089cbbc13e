"""fusecast benchmark: times real CLI commands on generated inputs.

    python3 perfbench/run.py --workload pipeline-2m --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is the checkout's src/.
Each timed operation runs the workload's commands one after another, each a
fresh `python -m fusecast` child, so every operation pays interpreter start,
import, work and file I/O, as a user does. Outputs are checked outside the
timed region. With `--trace 1` the same commands also run in this process
with a span around each layer's public call (see spans.py), which gives the
per-layer metrics. `--workload all` runs every workload in turn.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the interpreter, platform, sample counts and measured input sizes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

SETUP_SAMPLES = 20    # fewest fresh `import fusecast.cli` runs behind setup_s
MIN_OPS = 3           # operations measured even when one outlasts --seconds
COMMAND_TIMEOUT = 60  # seconds before a command counts as hung and is killed
SUBPROCESS_SHARE = 0.4  # share of a traced run spent on child processes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems[:3])


@dataclass
class Op:
    seconds: float
    peak_rss_mb: float
    problems: list[str]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Spawns timed children through launch.py, one at a time."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT + 10)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, args: list[str]) -> tuple[float, float, str | None]:
        """Run one child to exit: (seconds, peak RSS in MB, problem or None)."""
        stderr = self.work_dir / "stderr.txt"
        request = {"args": args, "cwd": str(self.work_dir), "stderr": str(stderr),
                   "timeout": COMMAND_TIMEOUT}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        problem = None
        if reply["exit"] is None:
            problem = f"{' '.join(args[:3])}: hung, killed after {COMMAND_TIMEOUT} s"
        elif reply["exit"] != 0:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"{' '.join(args[:3])}: exit {reply['exit']} {tail}"
        return reply["seconds"], reply["maxrss_kb"] / 1024, problem


def _run_op(work: gen.Workload, launcher: Launcher) -> Op:
    seconds, peak, problems = 0.0, 0.0, []
    for command in work.commands:
        took, rss, problem = launcher.spawn(["-m", "fusecast", *command])
        seconds += took
        peak = max(peak, rss)
        if problem:
            problems.append(problem)
            break
    return Op(seconds, peak, problems)


class Checker:
    """Checks each distinct set of output bytes once; an operation whose
    outputs equal bytes already checked gets that verdict."""

    def __init__(self, work: gen.Workload, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, size
        self.verdicts: dict[tuple, list[str]] = {}
        self.sizes: dict = {}

    def __call__(self) -> list[str]:
        import checks

        try:
            key = tuple(checks.output_digests(self.work.outputs).items())
        except OSError as exc:
            return [f"output missing: {exc}"]
        if key not in self.verdicts:
            try:
                recorded = checks.recorded_digests(self.work.name, self.seed, self.size)
                self.verdicts[key] = checks.check(self.work, recorded)
                self.sizes = self.sizes or checks.sizes(self.work)
            except Exception as exc:  # a malformed output is a failed check, not a crash
                traceback.print_exc()
                self.verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return self.verdicts[key]


def _import_time(launcher: Launcher) -> float:
    """One fresh interpreter importing fusecast.cli, to exit."""
    seconds, _, problem = launcher.spawn(["-c", "import fusecast.cli"])
    if problem:
        raise RuntimeError(f"cannot import fusecast.cli: {problem}")
    return seconds


def _measure(work, launcher, checker, tally, seconds) -> tuple[list[Op], list[float]]:
    """Operations until their summed time reaches `seconds`, and set-up
    samples taken between them, so both see the machine over the same span."""
    _import_time(launcher)  # compiles the bytecode; not a sample
    ops: list[Op] = []
    setup: list[float] = []
    while len(ops) < MIN_OPS or sum(op.seconds for op in ops) < seconds:
        op = _run_op(work, launcher)
        if not op.problems:
            op.problems = checker()
        tally.record(op.problems)
        ops.append(op)
        if len(ops) % 2:
            setup.append(_import_time(launcher))
    while len(setup) < SETUP_SAMPLES:
        setup.append(_import_time(launcher))
    return ops, setup


def _traced(work, work_dir, tally, seconds, wall_s, setup_s, spans_path):
    """In-process runs of the same commands, alternately traced and not."""
    import spans
    from fusecast import cli

    inproc = work_dir / "inproc"
    inproc.mkdir()
    outputs = {name: inproc / path.name for name, path in work.outputs.items()}
    swap = {str(path): str(outputs[name]) for name, path in work.outputs.items()}
    commands = [[swap.get(arg, arg) for arg in command] for command in work.commands]
    expected = set().union(*(spans.EXPECTED[command[0]] for command in commands))
    recorder = spans.Recorder()
    traced: list[spans.OpTrace] = []
    overhead: list[float] = []

    def traced_op() -> float:
        first = len(recorder.spans)
        recorder.reset_counts()
        with spans.interpose(recorder):
            codes = [_in_process(recorder.command_span, command) for command in commands]
        op_spans = recorder.spans[first:]
        problems = [f"{c[0]}: exit {code}" for c, code in zip(commands, codes) if code]
        missing = expected - {span.name for span in op_spans}
        if missing:
            problems.append(f"no span for {sorted(missing)}: the CLI bypasses the interposed names")
        for name, path in outputs.items():
            if not problems and path.read_bytes() != work.outputs[name].read_bytes():
                problems.append(f"in-process {name} differs from the CLI's")
        tally.record(problems)
        traced.append(spans.summarize(op_spans, recorder.counts))
        return traced[-1].command_s

    def untraced_op() -> float:
        start = perf_counter()
        for command in commands:
            _in_process(cli.main, command)
        return perf_counter() - start

    # Traced and untraced runs alternate in pairs, in alternating order, so
    # the overhead is a median of differences taken close together in time.
    deadline = perf_counter() + seconds
    while len(traced) < MIN_OPS or perf_counter() < deadline:
        pair = (traced_op, untraced_op) if len(traced) % 2 else (untraced_op, traced_op)
        times = {}
        for op in pair:
            gc.collect()
            times[op] = op()
        overhead.append(times[traced_op] - times[untraced_op])
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span.__dict__) + "\n")
    return spans.layer_metrics(traced, wall_s, setup_s, len(commands), overhead)


def _in_process(call, argv) -> int:
    """Exit status of one in-process command; a crash is a failed command."""
    try:
        return call(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 units: dict[str, str]) -> tuple[dict, dict]:
    work_dir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work = gen.generate(name, seed, work_dir, size)
    launcher = Launcher(work_dir)
    try:
        checker = Checker(work, seed, size)
        tally = Tally()
        for command in work.expect.get("setup", []):
            _, _, problem = launcher.spawn(["-m", "fusecast", *command])
            if problem:
                raise RuntimeError(f"set-up command failed: {problem}")
        ops, setup = _measure(work, launcher, checker, tally,
                              seconds * SUBPROCESS_SHARE if trace else seconds)
        setup_s = statistics.median(setup)
        wall_s = statistics.median(op.seconds for op in ops)
        if trace:
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            values = _traced(work, work_dir, tally,
                             seconds * (1 - SUBPROCESS_SHARE), wall_s, setup_s, spans_path)
        else:
            values = {
                "wall_s": wall_s,
                "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
                "setup_s": setup_s,
                "ok_ratio": 1 - tally.failed / tally.attempted,
            }
        info = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
                "samples": {"ops": len(ops), "setup": len(setup)},
                "sizes": checker.sizes, "problems": tally.problems}
    finally:
        launcher.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    return result, info


def main() -> int:
    parser = argparse.ArgumentParser(description="fusecast CLI benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(gen.SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args()

    if not (SRC / "fusecast" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no fusecast checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    OUT.mkdir(exist_ok=True)

    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    stamp = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
             "platform": platform.platform()}
    results = {}
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    args.size, units)
        results[name] = result
        print(json.dumps({**info, **stamp}))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
