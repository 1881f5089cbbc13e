"""Record the sha256 digests of every workload's outputs at the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json. The benchmark fails its output check at the
default seed when an output byte changes, so rerun this only for a change
that is meant to alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import gen  # noqa: E402


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    scratch = HERE.parent / ".perfbench" / "digests"
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for size in gen.SIZES:
            for name in gen.WORKLOADS:
                work = gen.generate(name, checks.DEFAULT_SEED, scratch / size / name, size)
                for command in work.expect.get("setup", []) + work.commands:
                    subprocess.run([sys.executable, "-m", "fusecast", *command],
                                   env=env, check=True, timeout=300)
                problems = checks.check(work)
                if problems:
                    raise SystemExit(f"{size} {name}: outputs fail their checks: {problems}")
                recorded.setdefault(size, {})[name] = checks.output_digests(work.outputs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
