import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusecast
from fusecast.ingest import parse_source_map
from fusecast.kb import load_kb
from fusecast.model import parse_timeref
from fusecast.tournament import build_theory

FIXTURES = Path(__file__).parent / "fixtures"


def run_python(args, encoding: str = "utf-8", cwd=None, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on `args` that imports the fusecast under test, in
    `cwd` with `env` added to the environment; its output decoded, its status
    unchecked."""
    src = str(Path(fusecast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, encoding=encoding, cwd=cwd)


_acceptance_results: list[tuple[str, str, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    _acceptance_results.append((name, "PASS" if passed else "FAIL", detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, detail in _acceptance_results:
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{status}  {name}{suffix}")


@pytest.fixture(scope="session")
def seaside_kb():
    return load_kb((FIXTURES / "seaside" / "kb.json").read_bytes())


@pytest.fixture(scope="session")
def seaside_lams():
    lams = []
    for name in ("gfs.json", "ecmwf.json", "obs.json"):
        lams.extend(parse_source_map((FIXTURES / "seaside" / name).read_bytes()))
    return lams


@pytest.fixture(scope="session")
def now_h0():
    return parse_timeref("h0")


@pytest.fixture(scope="session")
def seaside_theory(seaside_lams, seaside_kb, now_h0):
    return build_theory(seaside_lams, seaside_kb, now_h0)


@pytest.fixture(scope="session")
def seaside_reference_theory():
    from fusecast.theory import parse_theory

    return parse_theory((FIXTURES / "seaside" / "reference_theory.dfl").read_text())


@pytest.fixture(scope="session")
def rain_reference_theory():
    from fusecast.theory import parse_theory

    return parse_theory((FIXTURES / "rain" / "reference_theory.dfl").read_text())
