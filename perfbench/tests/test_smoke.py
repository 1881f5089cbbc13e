"""Smoke test of the whole benchmark at tiny size: every workload, both
modes, every output check on, no timing gate.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, script: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_reports_every_metric(trace):
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "0.2",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    for workload in BENCH["workloads"]:
        for metric in metrics:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    stamps = [line for line in lines if "platform" in line]
    assert len(stamps) == len(BENCH["workloads"])
    assert all(s["python"] and s["nproc"] >= 1 and not s["problems"] for s in stamps)


def test_generator_is_deterministic(tmp_path):
    for workload in gen.WORKLOADS:
        first = gen.generate(workload, 7, tmp_path / "a" / workload, "tiny")
        gen.generate(workload, 7, tmp_path / "b" / workload, "tiny")
        gen.generate(workload, 8, tmp_path / "c" / workload, "tiny")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                       if p.is_file())
        assert files
        same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
                for f in files]
        assert all(same), workload
        assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
                   for f in files), workload
        assert first.commands


def test_pipeline_16m_hits_every_sift_and_prevalence_case(tmp_path):
    from fusecast.ingest import parse_source_map
    from fusecast.kb import load_kb
    from fusecast.model import parse_timeref
    from fusecast.tournament import Winner, prevails, sift, slot_key

    work = gen.generate("pipeline-16m", 0, tmp_path, "tiny")
    argv = work.commands[0]
    paths = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--source", "--obs")]
    lams = [lam for p in paths for lam in parse_source_map(Path(p).read_bytes())]
    kb = load_kb(Path(argv[argv.index("--kb") + 1]).read_bytes())
    now = parse_timeref(argv[argv.index("--now") + 1])
    kept = sift(lams, kb, now)
    assert 0 < len(kept) < len(lams)
    assert {lam.label.method for lam in lams} - {lam.label.method for lam in kept} == {"FUT"}

    slots = defaultdict(list)
    for lam in kept:
        if not lam.is_observation:
            slots[slot_key(lam, now)].append(lam)
    bases = set()
    for group in slots.values():
        champion = group[0]
        for challenger in group[1:]:
            if champion.map.value == challenger.map.value:
                continue
            verdict = prevails(champion, challenger, kb)
            bases.add(verdict.basis and verdict.basis.value)
            if verdict.winner is Winner.SECOND:
                champion = challenger
    assert {"specific", "accuracy", "recency"} <= bases


def _corrupt_tag(path: Path) -> None:
    """Move one +d literal, a scenario entry where there is one, to -d."""
    doc = json.loads(path.read_text())
    untagged = [lit for lit in doc["+d"] if re.match(r"[A-Z][A-Za-z0-9]*_h\d+_", lit)]
    lit = (untagged or doc["+d"])[-1]
    doc["+d"].remove(lit)
    doc["-d"].append(lit)
    path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_checks_reject_a_changed_output(tmp_path, workload):
    work = gen.generate(workload, 3, tmp_path, "tiny")
    env_path = str(ROOT / "src")
    for command in work.expect.get("setup", []) + work.commands:
        subprocess.run([sys.executable, "-m", "fusecast", *command], check=True,
                       env={"PYTHONPATH": env_path, "PATH": ""}, timeout=120)
    assert checks.check(work) == []
    _corrupt_tag(work.outputs["conclusions"])
    assert checks.check(work)


def test_digests_are_recorded_for_every_workload_and_size():
    recorded = json.loads(checks.DIGESTS.read_text())
    assert set(recorded) == set(gen.SIZES)
    assert all(set(by_workload) == set(gen.WORKLOADS) for by_workload in recorded.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "reason-chain", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
