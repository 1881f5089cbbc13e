"""Byte-for-byte outputs of the fixtures and the demos.

Each case regenerates one output and compares it with its file under
fixtures/golden. A change that means to alter an output rewrites the files
with `PYTHONPATH=src python tests/test_golden.py` and shows the diff.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fusecast.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
SEASIDE = FIXTURES / "seaside"
SCRIPTS = Path(__file__).parent.parent / "scripts"

_SEASIDE_INPUTS = [
    "--source", str(SEASIDE / "gfs.json"), "--source", str(SEASIDE / "ecmwf.json"),
    "--obs", str(SEASIDE / "obs.json"), "--kb", str(SEASIDE / "kb.json"), "--now", "h0",
]


def _cli(argv) -> None:
    assert main(argv) == 0, argv


def _seaside_pipeline(fmt):
    def run(tmp: Path) -> dict[str, bytes]:
        out = tmp / "bulletin"
        argv = ["pipeline", *_SEASIDE_INPUTS, "--format", fmt, "--out", str(out)]
        if fmt != "text":
            _cli(argv)
            return {f"seaside_pipeline.{fmt}": out.read_bytes()}
        _cli([*argv, "--emit-theory", str(tmp / "theory"),
              "--emit-conclusions", str(tmp / "conclusions")])
        return {"seaside_pipeline.text": out.read_bytes(),
                "seaside_theory.dfl": (tmp / "theory").read_bytes(),
                "seaside_conclusions.json": (tmp / "conclusions").read_bytes()}
    return run


def _rain_restage(tmp: Path) -> dict[str, bytes]:
    concls = tmp / "conclusions"
    _cli(["reason", str(FIXTURES / "rain" / "reference_theory.dfl"), "--out", str(concls)])
    outputs = {"rain_conclusions.json": concls.read_bytes()}
    for fmt in ("text", "html", "json"):
        _cli(["bulletin", str(concls), "--now", "h0", "--format", fmt,
              "--out", str(tmp / fmt)])
        outputs[f"rain_bulletin.{fmt}"] = (tmp / fmt).read_bytes()
    return outputs


def _demo(name):
    def run(tmp: Path) -> dict[str, bytes]:
        out = io.StringIO()
        with redirect_stdout(out):
            runpy.run_path(str(SCRIPTS / f"run_{name}_demo.py"), run_name="__main__")
        return {f"{name}_demo.out": out.getvalue().encode("utf-8")}
    return run


CASES = {
    "seaside-text": _seaside_pipeline("text"),
    "seaside-html": _seaside_pipeline("html"),
    "seaside-json": _seaside_pipeline("json"),
    "rain-restage": _rain_restage,
    "seaside-demo": _demo("seaside"),
    "rain-demo": _demo("rain"),
}


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_are_unchanged(case, tmp_path):
    for name, data in CASES[case](tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for run in CASES.values():
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run(Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
                print(f"wrote {GOLDEN / name}", file=sys.stderr)
