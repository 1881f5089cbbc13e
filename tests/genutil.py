"""Seeded random generators shared by the property and differential suites."""

from __future__ import annotations

import random
from typing import Sequence

from fusecast.inputs import MILLION
from fusecast.kb import AccuracyRecord, KnowledgeBase
from fusecast.model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    TimeRef,
    Value,
)
from fusecast.theory import DefeasibleTheory, Literal, Rule, RuleKind

ATOMS = "abcdefgh"


def random_literal(rng: random.Random, atoms: str = ATOMS) -> Literal:
    return Literal(rng.choice(atoms), positive=rng.random() < 0.5)


def random_theory(rng: random.Random, max_rules: int = 10,
                  atoms: str = ATOMS) -> DefeasibleTheory:
    """A small random theory with acyclic superiority over complementary heads.

    Rule ids are zero-padded in creation order, so the rule tuple is already
    in the serializer's canonical (lexicographic) order.
    """
    n_rules = rng.randint(0, max_rules)
    rules = []
    for i in range(n_rules):
        kind = rng.choices(
            [RuleKind.DEFEASIBLE, RuleKind.STRICT, RuleKind.DEFEATER],
            weights=[6, 3, 1],
        )[0]
        body = tuple(random_literal(rng, atoms) for _ in range(rng.randint(0, 3)))
        rules.append(Rule(f"r{i:02d}", kind, body, random_literal(rng, atoms)))
    facts = []
    for _ in range(rng.randint(0, 2)):
        lit = random_literal(rng, atoms)
        if lit not in facts:
            facts.append(lit)

    # Acyclic by construction: edges only run forward along a random ranking.
    ranking = list(range(n_rules))
    rng.shuffle(ranking)
    rank = {f"r{i:02d}": ranking[i] for i in range(n_rules)}
    sups = []
    for i, winner in enumerate(rules):
        for loser in rules[i + 1:]:
            if winner.head != loser.head.complement():
                continue
            if rng.random() > 0.5:
                continue
            pair = ((winner.id, loser.id) if rank[winner.id] < rank[loser.id]
                    else (loser.id, winner.id))
            if pair not in sups:
                sups.append(pair)
    return DefeasibleTheory(tuple(facts), tuple(rules), tuple(sups))


def codec_seed_tuple(rng: random.Random):
    """A random valid (condition, source, location, horizon, value) tuple."""
    condition = rng.choice(list(Condition))
    location = "Sea" if condition is Condition.SEA else rng.choice(
        ["North", "Center", "South", "East", "West", "Lagoon"])
    source = rng.choice([None, "g", "e", "o", "ecmwf", "icon2"])
    horizon = rng.randint(0, 9)
    direction = rng.choice(list(Compass)) if condition is Condition.WIND else None
    micros = rng.randint(0, 400) * MILLION // rng.choice((1, 2, 4))
    if condition.is_percent:
        micros = min(micros, 100 * MILLION)
    return condition, source, location, horizon, Value(micros, direction)


# ---------------------------------------------------------------------------
# Random tournament inputs (two or more models, optional observations)
# ---------------------------------------------------------------------------

_SLOT_POOL = [
    (Condition.CLOUDINESS, "North"),
    (Condition.CLOUDINESS, "Center"),
    (Condition.WIND, "North"),
    (Condition.WIND, "South"),
    (Condition.SEA, "Sea"),
    (Condition.RAIN, "East"),
]


def _random_value(rng: random.Random, condition: Condition):
    if condition is Condition.WIND:
        return Value(rng.randint(0, 40) * MILLION, rng.choice(list(Compass)))
    upper = 100 if condition.is_percent else 200
    return Value(rng.randint(0, upper) * MILLION)


def random_two_model_inputs(rng: random.Random, methods: Sequence[str] = ("Alpha", "Beta")):
    """(lams, kb) for a randomized run of `methods`, sometimes with observations."""
    records = []
    for method in methods:
        for horizon in (0, 1, 2):
            records.append(AccuracyRecord(method, horizon, rng.randint(1, 99) * 10_000))
    kb = KnowledgeBase(tuple(records))

    lams = []
    for method in methods:
        label = Label(method, TimeRef(horizon=0))
        for condition, loc in _SLOT_POOL:
            for horizon in (0, 1, 2):
                if rng.random() < 0.25:
                    continue  # slot not covered by this model
                lams.append(LabeledAssertionalMap(label, AssertionalMap(
                    condition, loc, TimeRef(horizon=horizon),
                    _random_value(rng, condition))))
    if rng.random() < 0.5:
        label = Label("O", TimeRef(horizon=0))
        for condition, loc in _SLOT_POOL:
            if rng.random() < 0.5:
                continue
            lams.append(LabeledAssertionalMap(label, AssertionalMap(
                condition, loc, TimeRef(horizon=0),
                _random_value(rng, condition))))
    return lams, kb
