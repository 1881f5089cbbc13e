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
        R[~q] is applicable and no t in R_sd[q] that is not discarded has
        t > s.

`conclusions` runs one worklist over interned literals, after Maher
("Propositional defeasible logic has linear complexity", TPLP 2001) without
his theory transformations. Literals are interned by text: the first one met
of the k-th atom gets id 2k and its complement 2k + 1, so ~q is q ^ 1. Counts
stand for the quantifiers above, so checking a literal is O(1);
it is checked once, then only when a rule for q or ~q becomes applicable or
discarded. Termination is structural: in each pass (+Δ, then ±∂) a literal
is tagged at most once, and a rule changes state at most once, enqueueing its
head and the head's complement: O(|literals| + |rules| + |superiority| +
|bodies|) work in all. Literals left untagged (derivation loops) are undetermined.

`oracle_conclusions` recomputes the tags as the least fixpoint of the
conditions above, by repeated passes with no ids, counts or worklist — a
structurally different algorithm used for differential testing.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple, TextIO

from .errors import SchemaError, TheoryError
from .inputs import read_json_object
from .theory import (_LIT, DefeasibleTheory, Literal, Rule, RuleKind, parse_literal,
                     validate_theory)


class ConclusionSet(NamedTuple):
    plus_definite: frozenset[Literal] = frozenset()
    minus_definite: frozenset[Literal] = frozenset()
    plus_defeasible: frozenset[Literal] = frozenset()
    minus_defeasible: frozenset[Literal] = frozenset()
    undetermined: frozenset[Literal] = frozenset()


def conclusions(theory: DefeasibleTheory) -> ConclusionSet:
    """All four proof-tag sets, plus undetermined literals, for a valid theory:
    one from `parse_theory` or `build_theory`, which both validate it."""
    lits, definite, tag = _close(theory)
    return ConclusionSet(
        plus_definite=_pick(lits, definite, 1),
        minus_definite=_pick(lits, definite, 0),
        plus_defeasible=_pick(lits, tag, 1),
        minus_defeasible=_pick(lits, tag, 2),
        undetermined=_pick(lits, tag, 0),
    )


def _pick(lits: list[Literal], flags: bytearray, value: int) -> frozenset[Literal]:
    # Copied from a set, a frozenset's table fits; filled one by one, it can double.
    return frozenset({q for q, f in zip(lits, flags) if f == value})


def _close(theory: DefeasibleTheory) -> tuple[list[Literal], bytearray, bytearray]:
    """The literals by id, their +Δ flags, and their tags (1 +∂, 2 −∂)."""
    ids: dict[Literal, int] = {}          # in id order: each literal, then its complement

    def intern(lit: Literal) -> int:
        i = ids.get(lit)
        if i is None:
            i = ids[lit] = len(ids)
            ids[lit.complement()] = i + 1
        return i

    heads, sizes = [], []                 # rule -> head literal, body length
    kinds = bytearray()                   # rule -> 2 strict, 1 defeasible, 0 defeater
    occurs: dict[int, list[int]] = {}     # literal -> rules with it in the body, per occurrence
    for j, rule in enumerate(theory.rules):
        heads.append(intern(rule.head))
        sizes.append(len(rule.body))
        kinds.append((rule.kind is not RuleKind.DEFEATER) + (rule.kind is RuleKind.STRICT))
        for b in rule.body:
            occurs.setdefault(intern(b), []).append(j)
    number = {rule.id: j for j, rule in enumerate(theory.rules)}
    beats: dict[int, list[int]] = {}      # supporting rule -> rules it is superior to
    unbeaten = [0] * len(heads)           # rule -> superior supporting rules not discarded
    for w, l in theory.superiority:
        if kinds[number[w]]:
            beats.setdefault(number[w], []).append(number[l])
            unbeaten[number[l]] += 1
    work = [intern(f) for f in theory.facts]
    work += [h for h, k, z in zip(heads, kinds, sizes) if k == 2 and not z]
    lits = list(ids)

    # +Δ: count down each strict rule's body; a rule at zero fires its head.
    definite = bytearray(len(lits))
    left = sizes[:]
    while work:
        q = work.pop()
        if not definite[q]:
            definite[q] = 1
            for j in occurs.get(q, ()):
                left[j] -= 1
                if not left[j] and kinds[j] == 2:
                    work.append(heads[j])

    # ±∂. Per rule j: `left[j]` body literals not yet +∂ (0: applicable), and
    # `settled[j]` once j is discarded or beaten by an applicable rule. Per
    # literal q: `ready[q]` some rule in R_sd[q] is applicable, `backed[q]`
    # rules in R_sd[q] not discarded, `threats[q]` rules in R[~q] not settled,
    # `lost[q]` some applicable s in R[~q] has every superior rule discarded.
    tag = bytearray(len(lits))
    left = sizes[:]
    discarded, settled = bytearray(len(heads)), bytearray(len(heads))
    ready, lost = bytearray(len(lits)), bytearray(len(lits))
    backed, threats = [0] * len(lits), [0] * len(lits)
    for h, k in zip(heads, kinds):
        backed[h] += k > 0
        threats[h ^ 1] += 1

    def settle(s: int) -> None:
        if not settled[s]:
            settled[s] = 1
            threats[heads[s] ^ 1] -= 1

    def applicable(j: int) -> None:
        h = heads[j]
        ready[h] |= kinds[j] > 0
        for s in beats.get(j, ()):
            settle(s)
        lost[h ^ 1] |= not unbeaten[j]
        work.extend((h, h ^ 1))

    for j in [j for j, z in enumerate(sizes) if not z]:
        applicable(j)
    for start in range(len(lits)):
        work.append(start)
        while work:
            q = work.pop()
            if tag[q]:
                continue
            if definite[q] or not definite[q ^ 1] and ready[q] and not threats[q]:
                tag[q] = 1
                for j in occurs.get(q, ()):
                    left[j] -= 1
                    if not left[j]:
                        applicable(j)
            elif not definite[q] and (definite[q ^ 1] or not backed[q] or lost[q]):
                tag[q] = 2
                for j in occurs.get(q, ()):
                    if discarded[j]:
                        continue
                    discarded[j] = 1
                    backed[heads[j]] -= kinds[j] > 0
                    settle(j)
                    for s in beats.get(j, ()):
                        unbeaten[s] -= 1
                        lost[heads[j]] |= not unbeaten[s] and not left[s]
                    work += (heads[j], heads[j] ^ 1)
    return lits, definite, tag


# ---------------------------------------------------------------------------
# Differential-testing oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_ATOMS = 12  # read only by perfbench's per-component oracle check


class _Index:
    """The oracle's Literal-keyed rule tables for one theory."""

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


def oracle_conclusions(theory: DefeasibleTheory) -> ConclusionSet:
    """Tags as the least fixpoint of the module docstring's conditions, which
    transcribe Antoniou, Billington, Governatori and Maher ("Representation
    results for defeasible logic", ACM TOCL 2001).

    +Δ grows by passes until one adds nothing; −Δ is the rest. Then passes
    test each untagged literal against the +∂ and the −∂ condition, with the
    tags found so far, until one adds nothing. Both conditions need body
    literals to carry tags, never to lack them, so both are monotone and the
    passes reach the least fixpoint. No literal has both a +∂ and a −∂ proof,
    so a tagged literal is not tested again.
    """
    validate_theory(theory)
    idx = _Index(theory)
    definite: set[Literal] = set()
    while grown := {q for q in idx.universe - definite if q in idx.facts or any(
            all(b in definite for b in r.body) for r in idx.strict.get(q, ()))}:
        definite |= grown

    plus: set[Literal] = set()
    minus: set[Literal] = set()

    def applicable(r: Rule) -> bool:
        return all(b in plus for b in r.body)

    def discarded(r: Rule) -> bool:
        return any(b in minus for b in r.body)

    def provable(q: Literal, neg: Literal) -> bool:
        supports = idx.support.get(q, ())
        return q in definite or (
            neg not in definite
            and any(applicable(r) for r in supports)
            and all(discarded(s) or any((t.id, s.id) in idx.beats and applicable(t)
                                        for t in supports)
                    for s in idx.attackers.get(neg, ())))

    def refutable(q: Literal, neg: Literal) -> bool:
        supports = idx.support.get(q, ())
        return q not in definite and (
            neg in definite
            or all(discarded(r) for r in supports)
            or any(applicable(s) and all(discarded(t) for t in supports
                                         if (t.id, s.id) in idx.beats)
                   for s in idx.attackers.get(neg, ())))

    grew = True
    while grew:
        grew = False
        for q in idx.universe - plus - minus:
            for tagged, holds in ((plus, provable), (minus, refutable)):
                if holds(q, q.complement()):
                    tagged.add(q)
                    grew = True
    return ConclusionSet(
        plus_definite=frozenset(definite),
        minus_definite=idx.universe - definite,
        plus_defeasible=frozenset(plus),
        minus_defeasible=frozenset(minus),
        undetermined=idx.universe - plus - minus,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_JSON_KEYS = {"+D": "plus_definite", "-D": "minus_definite", "+d": "plus_defeasible",
              "-d": "minus_defeasible", "undetermined": "undetermined"}


_DUMP = json.JSONEncoder(separators=(",\n    ", "")).encode  # json's C encoder
_CHUNK = 1024  # literals per dump: the encoder holds about 5 times a dump's text


def conclusions_to_json(cs: ConclusionSet, out: TextIO) -> None:
    """Write json.dumps(doc, indent=2) and a newline to the text stream `out`:
    one sorted list at a time, dumped _CHUNK literals at a time."""
    sep = "{\n"
    for key, attr in _JSON_KEYS.items():
        lits = sorted(getattr(cs, attr))
        out.write(f'{sep}  "{key}": [')
        for i in range(0, len(lits), _CHUNK):
            out.write((",\n    " if i else "\n    ") + _DUMP(lits[i:i + _CHUNK])[1:-1])
        out.write("\n  ]" if lits else "]")
        sep = ",\n"
    out.write("\n}\n")


def conclusions_from_json(data: bytes) -> ConclusionSet:
    """Tag sets from `conclusions_to_json` output; only "+d" is required.
    No literal is under two of +d, -d and undetermined, or under both +D and -D;
    +D lies within +d, and -d within -D when -D is given."""
    doc = read_json_object(data)
    canonical = re.compile(f"(?:{_LIT}\n)*{_LIT}").fullmatch  # as conclusions_to_json writes it
    sets = {}
    for key, items in doc.items():
        if key not in _JSON_KEYS:
            raise SchemaError(key, "unknown key")
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise SchemaError(key, "must be a list of literal strings")
        joined = "\n".join(items)
        read = (Literal if joined.count("\n") == len(items) - 1 and canonical(joined)
                else parse_literal)
        try:
            sets[key] = frozenset(map(read, items))
        except TheoryError as exc:
            raise SchemaError(key, f"bad literal: {exc}") from exc
    if "+d" not in doc:
        raise SchemaError("+d", "missing key")
    for group in (("+D", "-D"), ("+d", "-d", "undetermined")):  # no proof gives two of a group
        for i, key in enumerate(group):
            both = [(q, earlier) for earlier in group[:i]
                    for q in sets.get(key, frozenset()) & sets.get(earlier, frozenset())]
            if both:
                raise SchemaError(key, "literal {!r} is also under {!r}".format(*min(both)))
    for key, superset in (("+D", "+d"), ("-d", "-D")):  # every proof gives +D ⊆ +d, -d ⊆ -D
        if superset in sets:
            missing = sets.get(key, frozenset()) - sets[superset]
            if missing:
                raise SchemaError(key, f"literal {min(missing)!r} is not under {superset!r}")
    return ConclusionSet(**{_JSON_KEYS[key]: tags for key, tags in sets.items()})
