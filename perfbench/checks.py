"""Output checks for the benchmark workloads.

`check(work)` inspects the files one operation wrote and returns a list of
problems, empty when the outputs are correct; `sizes(work)` reads the work
done from the same files. The fusecast modules used here come from the
checkout under test.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from fusecast.errors import OpaqueAtomError
from fusecast.reasoner import ORACLE_MAX_ATOMS, oracle_conclusions
from fusecast.theory import DefeasibleTheory, decode_atom, parse_theory

DIGESTS = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 0
TAGS = ("+D", "-D", "+d", "-d", "undetermined")
_ATTRS = ("plus_definite", "minus_definite", "plus_defeasible", "minus_defeasible",
          "undetermined")


def output_digests(outputs: dict[str, Path]) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in sorted(outputs.items())}


def _load_tags(path: Path) -> dict[str, list[str]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {tag: doc[tag] for tag in TAGS}


def _atom(literal: str) -> str:
    return literal[1:] if literal.startswith("-") else literal


def sizes(work) -> dict:
    """Work the operation did, read from its outputs."""
    out = {}
    if "assertions" in work.expect:
        out["assertions"] = work.expect["assertions"]
    theory = work.outputs.get("theory") or work.expect["theory"]
    text = theory.read_text(encoding="utf-8")
    out["rules"] = sum(1 for line in text.splitlines() if ":" in line)
    out["priorities"] = sum(1 for line in text.splitlines() if " > " in line)
    out["theory_bytes"] = len(text.encode("utf-8"))
    tags = _load_tags(work.outputs["conclusions"])
    out["literals"] = len(tags["+D"]) + len(tags["-D"])
    return out


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def _scenario(tags: dict[str, list[str]]) -> dict[tuple, list[tuple]]:
    """Untagged +d literals per slot, decoded to (magnitude, direction)."""
    entries: dict[tuple, list[tuple]] = {}
    for lit in tags["+d"]:
        if lit.startswith("-"):
            continue
        try:
            decoded = decode_atom(lit)
        except OpaqueAtomError:
            continue
        if decoded.source is not None:
            continue
        slot = (decoded.condition.value, decoded.location, decoded.horizon)
        direction = decoded.value.direction.value if decoded.value.direction else None
        entries.setdefault(slot, []).append((decoded.value.magnitude, direction))
    return entries


def _check_scenario(work, problems: list[str]) -> None:
    """One entry per slot; h0 is the observation; every other value lies
    within the slot's kept inputs (magnitude between their extremes,
    direction one of theirs)."""
    kept, observed = work.expect["kept"], work.expect["observed"]
    entries = _scenario(_load_tags(work.outputs["conclusions"]))
    if set(entries) != set(kept):
        problems.append(f"scenario covers {len(entries)} slots, expected {len(kept)}")
    for slot, values in sorted(entries.items()):
        if len(values) != 1:
            problems.append(f"slot {slot}: {len(values)} scenario entries")
            continue
        magnitude, direction = values[0]
        if slot in observed:
            mag, obs_dir = observed[slot]
            if (magnitude, direction) != (Fraction(str(mag)), obs_dir):
                problems.append(f"slot {slot}: {values[0]} is not the observation")
            continue
        mags = [Fraction(str(m)) for m, _ in kept.get(slot, [])]
        dirs = {d for _, d in kept.get(slot, [])}
        if not mags or not min(mags) <= magnitude <= max(mags) or direction not in dirs:
            problems.append(f"slot {slot}: {values[0]} outside the kept inputs")
    lines = [line for line in work.outputs["bulletin"].read_text(encoding="utf-8").splitlines()
             if ": " in line]
    clauses = sum(len(line.split(", ")) for line in lines)
    if clauses != len(kept):
        problems.append(f"bulletin has {clauses} entries, expected {len(kept)}")


def _components(theory: DefeasibleTheory) -> list[DefeasibleTheory]:
    """Split a theory into connected parts over shared atoms."""
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    by_id = {rule.id: rule for rule in theory.rules}
    for fact in theory.facts:
        find(fact.atom)
    for rule in theory.rules:
        for lit in rule.body:
            union(lit.atom, rule.head.atom)
        find(rule.head.atom)
    for winner, loser in theory.superiority:
        union(by_id[winner].head.atom, by_id[loser].head.atom)
    parts: dict[str, tuple[list, list, list]] = {}
    for fact in theory.facts:
        parts.setdefault(find(fact.atom), ([], [], []))[0].append(fact)
    for rule in theory.rules:
        parts.setdefault(find(rule.head.atom), ([], [], []))[1].append(rule)
    for pair in theory.superiority:
        parts[find(by_id[pair[0]].head.atom)][2].append(pair)
    return [DefeasibleTheory(tuple(f), tuple(r), tuple(s)) for f, r, s in parts.values()]


def _check_oracle(work, problems: list[str]) -> None:
    """Re-prove every component of the emitted theory with the oracle and
    compare with the engine's conclusions on that component's literals."""
    theory = parse_theory(work.outputs["theory"].read_text(encoding="utf-8"))
    by_atom: dict[str, set[tuple[str, str]]] = {}
    for tag, lits in _load_tags(work.outputs["conclusions"]).items():
        for lit in lits:
            by_atom.setdefault(_atom(lit), set()).add((tag, lit))
    seen: set[str] = set()
    for part in _components(theory):
        atoms = {lit.atom for rule in part.rules for lit in (rule.head, *rule.body)}
        atoms |= {lit.atom for lit in part.facts}
        seen |= atoms
        if len(atoms) > ORACLE_MAX_ATOMS:
            problems.append(f"component of {len(atoms)} atoms exceeds the oracle limit")
            continue
        oracle = oracle_conclusions(part)
        want = {(tag, str(lit)) for tag, attr in zip(TAGS, _ATTRS)
                for lit in getattr(oracle, attr)}
        got = set().union(*(by_atom.get(atom, ()) for atom in atoms))
        if want != got:
            problems.append(f"tags differ from the oracle on the component of {min(atoms)}")
    stray = set(by_atom) - seen
    if stray:
        problems.append(f"{len(stray)} concluded atoms belong to no rule or fact")


def _check_reference(work, problems: list[str]) -> None:
    for name, ref in work.expect["reference"].items():
        if work.outputs[name].read_bytes() != ref.read_bytes():
            problems.append(f"{name} differs from the pipeline-2m output")


def _check_chain(work, problems: list[str]) -> None:
    got = _load_tags(work.outputs["conclusions"])
    for tag in TAGS:
        if got[tag] != work.expect["tags"][tag]:
            problems.append(f"{tag}: {len(got[tag])} literals, expected "
                            f"{len(work.expect['tags'][tag])} known from the chain")


_CHECKS = {
    "pipeline-2m": (_check_scenario, _check_oracle),
    "pipeline-16m": (_check_scenario,),
    "restage-2m": (_check_reference,),
    "reason-chain": (_check_chain,),
}


def recorded_digests(name: str, seed: int, size: str) -> dict[str, str] | None:
    """The output digests recorded for a workload, at the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text()).get(size, {}).get(name)


def check(work, recorded: dict[str, str] | None = None) -> list[str]:
    """Problems with the outputs of one operation; empty when all is well.

    With `recorded` digests (see `recorded_digests`), the output bytes must
    also match them, so any change to an output byte shows.
    """
    problems: list[str] = []
    for fn in _CHECKS[work.name]:
        fn(work, problems)
    if recorded is not None and recorded != output_digests(work.outputs):
        problems.append("output bytes differ from the digests recorded at the default seed")
    return problems
