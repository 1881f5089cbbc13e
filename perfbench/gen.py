"""Seeded input generator for the fusecast benchmark (stdlib only).

`generate(workload, seed, out_dir, size)` writes exactly the files the CLI
reads for one workload and returns a `Workload`: the commands that make one
timed operation, the output files to check, and what the checks expect.
Equal (workload, seed, size) give byte-equal files on every platform.

Run standalone to inspect a workload's inputs:

    python3 perfbench/gen.py --workload pipeline-2m --seed 0 --out /tmp/w
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

WORKLOADS = ("pipeline-2m", "pipeline-16m", "restage-2m", "reason-chain")

#: Workload sizes. "full" is what the benchmark times; "tiny" keeps every
#: code path and check of the full size and runs in well under a second.
SIZES = {
    "full": {"locations_2m": 160, "locations_16m": 20, "strict": 100, "links": 400},
    "tiny": {"locations_2m": 6, "locations_16m": 2, "strict": 5, "links": 20},
}

CONDITIONS = ("cloudiness", "rain", "wind")
HORIZONS = (0, 1, 2, 3)
COMPASS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
MIN_ACCURACY = "0.35"
_ACCURACY_PAIRS_2M = ((0.85, 0.45), (0.80, 0.55), (0.70, 0.40))


@dataclass
class Workload:
    """One generated workload: commands of one operation and check data."""

    name: str
    commands: list[list[str]]     # argv after `python -m fusecast`
    outputs: dict[str, Path]      # output name -> path the commands write
    expect: dict = field(default_factory=dict)


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _num(x: float):
    """JSON magnitude: an int when whole, else an exact half-step decimal."""
    return int(x) if x == int(x) else x


def _location_names(n: int) -> list[str]:
    return [f"P{i:03d}" for i in range(n)]


def _base_value(rng: random.Random, cond: str) -> tuple[float, str | None]:
    if cond == "cloudiness":
        return float(rng.randint(0, 100)), None
    if cond == "rain":
        return rng.randint(0, 80) / 2, None
    return float(rng.randint(2, 35)), rng.choice(COMPASS)


def _model_value(rng: random.Random, cond: str, base: float,
                 direction: str | None) -> dict:
    """A model's reading near the slot's base value, within the unit's range."""
    if cond == "cloudiness":
        entry = {"magnitude": min(100, max(0, int(base) + rng.randint(-25, 25)))}
    elif cond == "rain":
        entry = {"magnitude": _num(max(0.0, base + rng.randint(-12, 12) / 2))}
    else:
        turn = rng.choice((-1, 0, 0, 1))
        entry = {"magnitude": max(0, int(base) + rng.randint(-8, 8)),
                 "direction": COMPASS[(COMPASS.index(direction) + turn) % 8]}
    return entry


def _entry(cond: str, loc: str, valid_at: str, reading: dict) -> dict:
    return {"condition": cond, "location": loc, "valid_at": valid_at, **reading}


def _slot_magnitude(reading: dict) -> tuple:
    return (reading["magnitude"], reading.get("direction"))


# ---------------------------------------------------------------------------
# pipeline-2m (and the inputs restage-2m starts from)
# ---------------------------------------------------------------------------

def _pipeline_2m_inputs(rng: random.Random, out: Path, n_loc: int) -> dict:
    """Two global models over a dense grid; observations cover h0.

    Per lead horizon the seed picks which model gets the better accuracy of
    a fixed pair. Fixed pairs keep the blend weights, and so the share of
    vacuous fold rounds and the work, the same for every seed. All lie above
    `min_accuracy`, so sift keeps every input here; the sift-drop cases live
    in pipeline-16m.
    """
    models = ("GFS", "ECMWF")
    locations = _location_names(n_loc)
    docs = {m: [] for m in models}
    obs = []
    kept: dict[tuple, list[tuple]] = {}
    observed: dict[tuple, tuple] = {}
    for loc in locations:
        for cond in CONDITIONS:
            for h in HORIZONS:
                base, direction = _base_value(rng, cond)
                slot = (cond, loc, h)
                for m in models:
                    reading = _model_value(rng, cond, base, direction)
                    docs[m].append(_entry(cond, loc, f"h{h}", reading))
                    kept.setdefault(slot, []).append(_slot_magnitude(reading))
                if h == 0:
                    reading = _model_value(rng, cond, base, direction)
                    obs.append(_entry(cond, loc, "h0", reading))
                    observed[slot] = _slot_magnitude(reading)
    for m in models:
        _dump(out / f"{m.lower()}.json",
              {"method": m, "generated_at": "h0", "entries": docs[m]})
    _dump(out / "obs.json", {"method": "O", "generated_at": "h0", "entries": obs})
    accuracies: dict[str, dict[str, float]] = {m: {} for m in models}
    for lead, pair in zip(("1", "2", "3"), _ACCURACY_PAIRS_2M):
        better = rng.randrange(2)
        accuracies[models[better]][lead], accuracies[models[1 - better]][lead] = pair
    _dump(out / "kb.json", {"accuracies": accuracies, "overrides": [],
                            "min_accuracy": float(MIN_ACCURACY)})
    sources = []
    for m in models:
        sources += ["--source", str(out / f"{m.lower()}.json")]
    return {
        "args": sources + ["--obs", str(out / "obs.json"), "--kb", str(out / "kb.json"),
                           "--now", "h0"],
        "kept": kept, "observed": observed,
        "assertions": sum(map(len, docs.values())) + len(obs),
    }


def _pipeline_outputs(out: Path) -> dict[str, Path]:
    return {"theory": out / "theory.dfl", "conclusions": out / "conclusions.json",
            "bulletin": out / "bulletin.txt"}


def _pipeline_command(inputs: dict, outputs: dict[str, Path]) -> list[str]:
    return (["pipeline"] + inputs["args"] + [
        "--format", "text", "--out", str(outputs["bulletin"]),
        "--emit-theory", str(outputs["theory"]),
        "--emit-conclusions", str(outputs["conclusions"])])


def _pipeline_2m(rng, out: Path, size: dict) -> Workload:
    inputs = _pipeline_2m_inputs(rng, out, size["locations_2m"])
    outputs = _pipeline_outputs(out)
    return Workload("pipeline-2m", [_pipeline_command(inputs, outputs)], outputs,
                    {k: inputs[k] for k in ("kept", "observed", "assertions")})


def _restage_2m(rng, out: Path, size: dict) -> Workload:
    """The theory is made by a pipeline-2m run during set-up (see `setup`)."""
    inputs = _pipeline_2m_inputs(rng, out, size["locations_2m"])
    (out / "source").mkdir(exist_ok=True)
    source = _pipeline_outputs(out / "source")
    outputs = {"conclusions": out / "conclusions.json", "bulletin": out / "bulletin.txt"}
    commands = [
        ["reason", str(source["theory"]), "--out", str(outputs["conclusions"])],
        ["bulletin", str(outputs["conclusions"]), "--now", "h0", "--format", "text",
         "--out", str(outputs["bulletin"])],
    ]
    return Workload("restage-2m", commands, outputs, {
        "setup": [_pipeline_command(inputs, source)],
        "reference": {"conclusions": source["conclusions"], "bulletin": source["bulletin"]},
        "theory": source["theory"],
    })


# ---------------------------------------------------------------------------
# pipeline-16m
# ---------------------------------------------------------------------------

def _pipeline_16m(rng, out: Path, size: dict) -> Workload:
    """Sixteen surviving models per slot over a small grid, in ISO-8601 time.

    Seventeen on-time models plus one map stamped after `now`. Per lead
    horizon the seventeen accuracies are a shuffle of one fixed multiset on a
    0.05 grid over 0.30-0.95: exactly one 0.30 (below `min_accuracy`, so sift
    drops it), ties, and a 0.95 shared by one model of each generation cycle
    (the first fold round is decided by recency). One override scoped to
    (wind, first location) makes some model beat the h1 leader, so all three
    prevalence bases occur. The multiset keeps the work equal across seeds.
    """
    day = datetime(2024, 1, 1, 12, tzinfo=timezone.utc) + timedelta(days=rng.randrange(366))
    iso = lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")
    now = day
    cycles = (day.replace(hour=0), day.replace(hour=6))
    models = [f"M{i:02d}" for i in range(1, 18)]
    cycle_of = {m: cycles[i % 2] for i, m in enumerate(models)}
    future = "FUT"
    grid = [0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80,
            0.85, 0.90, 0.60, 0.75]
    accuracies: dict[str, dict[str, float]] = {m: {} for m in models + [future]}
    for lead in (1, 2, 3):
        early = rng.choice([m for m in models if cycle_of[m] == cycles[0]])
        late = rng.choice([m for m in models if cycle_of[m] == cycles[1]])
        rest = [m for m in models if m not in (early, late)]
        values = grid[:]
        rng.shuffle(values)
        for m, acc in zip(rest, values):
            accuracies[m][str(lead)] = acc
        accuracies[early][str(lead)] = accuracies[late][str(lead)] = 0.95
        accuracies[future][str(lead)] = 0.95
    # The h1 leader is the later-cycle 0.95 model; a mid-table model overrides it.
    leader = max((m for m in models if accuracies[m]["1"] == 0.95),
                 key=lambda m: cycle_of[m])
    challenger = next(m for m in models if 0.5 <= accuracies[m]["1"] < 0.95)
    locations = _location_names(size["locations_16m"])
    overrides = [{"winner": challenger, "loser": leader,
                  "condition": "wind", "location": locations[0]}]

    docs = {m: [] for m in models + [future]}
    obs = []
    kept: dict[tuple, list[tuple]] = {}
    observed: dict[tuple, tuple] = {}
    for loc in locations:
        for cond in CONDITIONS:
            for h in HORIZONS:
                base, direction = _base_value(rng, cond)
                valid_at = iso(day + timedelta(days=h))
                slot = (cond, loc, h)
                for m in models + [future]:
                    reading = _model_value(rng, cond, base, direction)
                    docs[m].append(_entry(cond, loc, valid_at, reading))
                    if m != future and accuracies[m][str(max(h, 1))] >= float(MIN_ACCURACY):
                        kept.setdefault(slot, []).append(_slot_magnitude(reading))
                if h == 0:
                    reading = _model_value(rng, cond, base, direction)
                    obs.append(_entry(cond, loc, valid_at, reading))
                    observed[slot] = _slot_magnitude(reading)
    args = []
    for m in models:
        path = out / f"{m.lower()}.json"
        _dump(path, {"method": m, "generated_at": iso(cycle_of[m]), "entries": docs[m]})
        args += ["--source", str(path)]
    path = out / "fut.json"
    _dump(path, {"method": future, "generated_at": iso(day.replace(hour=18)),
                 "entries": docs[future]})
    args += ["--source", str(path)]
    _dump(out / "obs.json", {"method": "O", "generated_at": iso(now), "entries": obs})
    _dump(out / "kb.json", {"accuracies": accuracies, "overrides": overrides,
                            "min_accuracy": float(MIN_ACCURACY)})
    args += ["--obs", str(out / "obs.json"), "--kb", str(out / "kb.json"), "--now", iso(now)]
    outputs = _pipeline_outputs(out)
    return Workload("pipeline-16m", [_pipeline_command({"args": args}, outputs)], outputs, {
        "kept": kept, "observed": observed,
        "assertions": sum(map(len, docs.values())) + len(obs),
    })


# ---------------------------------------------------------------------------
# reason-chain
# ---------------------------------------------------------------------------

def _reason_chain(rng, out: Path, size: dict) -> Workload:
    """A strict chain s0 -> ... -> sS, then a defeasible chain d1 ... dN.

    Link i of the defeasible chain, `d_i: prev => c_i`, is attacked by a
    defeasible rule or a defeater `x_i: prev => -c_i` (chosen by the seed),
    and `d_i > x_i`. Atom names and rule lines run in reverse dependency
    order, so every pass of either closure settles only one more link.
    Known tags: every chain atom is provable, every complement refuted.
    """
    n_strict, n_links = size["strict"], size["links"]
    s_name = [f"s{n_strict - i:04d}" for i in range(n_strict + 1)]
    c_name = [None] + [f"c{n_links - i:04d}" for i in range(1, n_links + 1)]
    rules, sups = [], []
    for i in range(n_links, 0, -1):
        prev = s_name[-1] if i == 1 else c_name[i - 1]
        arrow = rng.choice(("=>", "~>"))
        rules.append(f"d{c_name[i][1:]}: {prev} => {c_name[i]}")
        rules.append(f"x{c_name[i][1:]}: {prev} {arrow} -{c_name[i]}")
        sups.append(f"d{c_name[i][1:]} > x{c_name[i][1:]}")
    for i in range(n_strict, 0, -1):
        rules.append(f"t{s_name[i][1:]}: {s_name[i - 1]} -> {s_name[i]}")
    rng.shuffle(sups)
    theory = out / "chain.dfl"
    theory.write_text("\n".join([f">> {s_name[0]}"] + rules + sups) + "\n", encoding="utf-8")

    strict = sorted(s_name)
    chain = sorted(c_name[1:])
    neg = lambda atoms: [f"-{a}" for a in atoms]
    expect = {
        "+D": strict,
        "-D": sorted(chain + neg(strict) + neg(chain)),
        "+d": sorted(strict + chain),
        "-d": sorted(neg(strict) + neg(chain)),
        "undetermined": [],
    }
    outputs = {"conclusions": out / "conclusions.json"}
    return Workload("reason-chain", [["reason", str(theory), "--out", str(outputs["conclusions"])]],
                    outputs, {"tags": expect, "theory": theory})


_GENERATORS = {
    "pipeline-2m": _pipeline_2m,
    "pipeline-16m": _pipeline_16m,
    "restage-2m": _restage_2m,
    "reason-chain": _reason_chain,
}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> Workload:
    """Write one workload's input files under `out` and describe it."""
    out.mkdir(parents=True, exist_ok=True)
    # restage-2m restages exactly the theory pipeline-2m emits for the seed.
    family = "pipeline-2m" if workload == "restage-2m" else workload
    rng = random.Random(f"{family}/{seed}")
    return _GENERATORS[workload](rng, out, SIZES[size])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    work = generate(args.workload, args.seed, args.out, args.size)
    for command in work.expect.get("setup", []) + work.commands:
        print("python -m fusecast " + " ".join(command))


if __name__ == "__main__":
    main()
