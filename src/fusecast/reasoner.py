"""Defeasible-logic consequence: proof tags +Δ/−Δ (definite) and +∂/−∂
(defeasible), under the ambiguity-blocking, team-defeat semantics.

Inference conditions (q a literal, ~q its complement, R_sd the strict and
defeasible rules for a head, R all rules for a head including defeaters):

  +Δq : q is a fact, or some strict rule for q has all body literals +Δ
        (least fixpoint).
  −Δq : q is not reachable by the +Δ closure (its complement over the
        mentioned-literal universe).
  +∂q : +Δq; or −Δ~q and some r in R_sd[q] is applicable (all body +∂), and
        every s in R[~q] is discarded (some body −∂) or beaten by an
        applicable t in R_sd[q] with t > s.
  −∂q : −Δq, and: +Δ~q, or every r in R_sd[q] is discarded, or some s in
        R[~q] is applicable and no applicable t in R_sd[q] has t > s.

Both defeasible tags grow as a mutually-inductive least fixpoint; literals
that end up with neither tag (derivation loops) are reported undetermined.

`oracle_conclusions` recomputes the tags by depth-bounded top-down proof
search — a structurally different algorithm used for differential testing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import OracleLimitError, SchemaError, TheoryError
from .inputs import read_json_object
from .theory import DefeasibleTheory, Literal, Rule, RuleKind, parse_literal, validate_theory


@dataclass(frozen=True)
class ConclusionSet:
    plus_definite: frozenset[Literal] = frozenset()
    minus_definite: frozenset[Literal] = frozenset()
    plus_defeasible: frozenset[Literal] = frozenset()
    minus_defeasible: frozenset[Literal] = frozenset()
    undetermined: frozenset[Literal] = frozenset()

    def __post_init__(self):
        for name in ("plus_definite", "minus_definite", "plus_defeasible",
                     "minus_defeasible", "undetermined"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))


class _Index:
    """Rule lookup tables for one theory."""

    def __init__(self, theory: DefeasibleTheory):
        self.facts = frozenset(theory.facts)
        self.support: dict[Literal, list[Rule]] = {}   # strict + defeasible
        self.strict: dict[Literal, list[Rule]] = {}
        self.attackers: dict[Literal, list[Rule]] = {}  # all kinds
        self.beats = frozenset(theory.superiority)
        mentioned: set[Literal] = set(theory.facts)
        for rule in theory.rules:
            mentioned.add(rule.head)
            mentioned.update(rule.body)
            self.attackers.setdefault(rule.head, []).append(rule)
            if rule.kind is not RuleKind.DEFEATER:
                self.support.setdefault(rule.head, []).append(rule)
            if rule.kind is RuleKind.STRICT:
                self.strict.setdefault(rule.head, []).append(rule)
        self.universe = frozenset(mentioned) | {lit.complement() for lit in mentioned}


def _definite(idx: _Index) -> tuple[frozenset[Literal], frozenset[Literal]]:
    """(+Δ, −Δ) — strict least fixpoint and its complement over the universe."""
    plus: set[Literal] = set(idx.facts)
    changed = True
    while changed:
        changed = False
        for head, rules in idx.strict.items():
            if head in plus:
                continue
            if any(all(b in plus for b in r.body) for r in rules):
                plus.add(head)
                changed = True
    return frozenset(plus), frozenset(idx.universe - plus)


def _defeasible(
    idx: _Index, plus_def: frozenset[Literal], minus_def: frozenset[Literal]
) -> tuple[frozenset[Literal], frozenset[Literal]]:
    """(+∂, −∂) given the definite tags."""
    plus: set[Literal] = set()
    minus: set[Literal] = set()

    def applicable(rule: Rule) -> bool:
        return all(b in plus for b in rule.body)

    def discarded(rule: Rule) -> bool:
        return any(b in minus for b in rule.body)

    def provable(q: Literal) -> bool:
        if q in plus_def:
            return True
        neg = q.complement()
        if neg not in minus_def:
            return False
        supports = [r for r in idx.support.get(q, ()) if applicable(r)]
        if not supports:
            return False
        for s in idx.attackers.get(neg, ()):
            if discarded(s):
                continue
            if not any((t.id, s.id) in idx.beats for t in supports):
                return False
        return True

    def refutable(q: Literal) -> bool:
        if q not in minus_def:
            return False
        neg = q.complement()
        if neg in plus_def:
            return True
        supports = idx.support.get(q, ())
        if all(discarded(r) for r in supports):
            return True
        undefeated = [t for t in supports if not discarded(t)]
        for s in idx.attackers.get(neg, ()):
            if applicable(s) and not any((t.id, s.id) in idx.beats for t in undefeated):
                return True
        return False

    # Mutually-inductive fixpoint; each pass adds at least one tag or stops,
    # so it closes within 2 * |universe| iterations.
    pending = set(idx.universe)
    rounds = 0
    changed = True
    while changed and pending:
        rounds += 1
        assert rounds <= 2 * len(idx.universe) + 2, "fixpoint failed to close"
        changed = False
        for q in sorted(pending, key=str):
            if q in plus or q in minus:
                continue
            if provable(q):
                plus.add(q)
                changed = True
            elif refutable(q):
                minus.add(q)
                changed = True
        pending -= plus | minus
    return frozenset(plus), frozenset(minus)


def conclusions(theory: DefeasibleTheory) -> ConclusionSet:
    """All four proof-tag sets for a valid theory, plus undetermined literals."""
    validate_theory(theory)
    idx = _Index(theory)
    plus_def, minus_def = _definite(idx)
    plus, minus = _defeasible(idx, plus_def, minus_def)
    return ConclusionSet(
        plus_definite=plus_def,
        minus_definite=minus_def,
        plus_defeasible=plus | plus_def,
        minus_defeasible=minus,
        undetermined=idx.universe - plus - plus_def - minus,
    )


# ---------------------------------------------------------------------------
# Differential-testing oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_ATOMS = 12


def oracle_conclusions(theory: DefeasibleTheory) -> ConclusionSet:
    """Tags by exhaustive top-down proof search with depth bounding.

    A goal holds iff it holds at nesting depth K = 2|universe| + 4, since the
    inductive definitions add at least one tag per level. Memoization keeps,
    per goal, the smallest depth that succeeded and the largest that failed
    (both sound because provability is monotone in depth).
    """
    validate_theory(theory)
    idx = _Index(theory)
    atoms = {lit.atom for lit in idx.universe}
    if len(atoms) > ORACLE_MAX_ATOMS:
        raise OracleLimitError(
            f"oracle accepts at most {ORACLE_MAX_ATOMS} distinct atoms, got {len(atoms)}"
        )
    depth = 2 * len(idx.universe) + 4
    memo_true: dict[tuple[str, Literal], int] = {}
    memo_false: dict[tuple[str, Literal], int] = {}

    def prove(tag: str, q: Literal, d: int) -> bool:
        key = (tag, q)
        if key in memo_true and memo_true[key] <= d:
            return True
        if key in memo_false and d <= memo_false[key]:
            return False
        if d <= 0:
            return False
        result = _eval(tag, q, d - 1)
        if result:
            memo_true[key] = min(memo_true.get(key, d), d)
        else:
            memo_false[key] = max(memo_false.get(key, d), d)
        return result

    def _eval(tag: str, q: Literal, d: int) -> bool:
        neg = q.complement()
        if tag == "+D":
            if q in idx.facts:
                return True
            return any(
                all(prove("+D", b, d) for b in r.body)
                for r in idx.strict.get(q, ())
            )
        if tag == "-D":
            return not prove("+D", q, depth)
        supports = idx.support.get(q, ())
        attackers = idx.attackers.get(neg, ())
        if tag == "+d":
            if prove("+D", q, depth):
                return True
            if not prove("-D", neg, depth):
                return False
            if not any(all(prove("+d", b, d) for b in r.body) for r in supports):
                return False
            for s in attackers:
                if any(prove("-d", b, d) for b in s.body):
                    continue
                if not any(
                    (t.id, s.id) in idx.beats
                    and all(prove("+d", b, d) for b in t.body)
                    for t in supports
                ):
                    return False
            return True
        if tag == "-d":
            if not prove("-D", q, depth):
                return False
            if prove("+D", neg, depth):
                return True
            if all(any(prove("-d", b, d) for b in r.body) for r in supports):
                return True
            for s in attackers:
                if all(prove("+d", b, d) for b in s.body) and not any(
                    (t.id, s.id) in idx.beats
                    and not any(prove("-d", b, d) for b in t.body)
                    for t in supports
                ):
                    return True
            return False
        raise ValueError(tag)

    plus_def = frozenset(q for q in idx.universe if prove("+D", q, depth))
    minus_def = frozenset(idx.universe - plus_def)
    plus = frozenset(q for q in idx.universe if prove("+d", q, depth))
    minus = frozenset(q for q in idx.universe if prove("-d", q, depth))
    return ConclusionSet(
        plus_definite=plus_def,
        minus_definite=minus_def,
        plus_defeasible=plus,
        minus_defeasible=minus,
        undetermined=idx.universe - plus - minus,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_JSON_KEYS = (("+D", "plus_definite"), ("-D", "minus_definite"),
              ("+d", "plus_defeasible"), ("-d", "minus_defeasible"),
              ("undetermined", "undetermined"))


def conclusions_to_json(cs: ConclusionSet) -> bytes:
    doc = {key: sorted(str(lit) for lit in getattr(cs, attr))
           for key, attr in _JSON_KEYS}
    return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode("utf-8")


def conclusions_from_json(data: bytes) -> ConclusionSet:
    doc = read_json_object(data)
    sets = {}
    for key, attr in _JSON_KEYS:
        items = doc.get(key, [])
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise SchemaError(key, "must be a list of literal strings")
        try:
            sets[attr] = frozenset(parse_literal(s) for s in items)
        except TheoryError as exc:
            raise SchemaError(key, f"bad literal: {exc}") from exc
    return ConclusionSet(**sets)
