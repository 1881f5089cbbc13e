"""Defeasible theories, the canonical weather-atom codec, and the text format.

Theory text grammar (UTF-8, line oriented, "%" starts a comment):

    fact      := ">>" literal
    rule      := id ":" [literal ("," literal)*] arrow literal
    arrow     := "->" | "=>" | "~>"          (strict | defeasible | defeater)
    sup       := id ">" id
    literal   := ["-"] atom
    id, atom  := [A-Za-z][A-Za-z0-9_]*

Canonical atoms encode one weather slot and value:

    <COND><LOC>[_<src>]_h<k>_<DIR?><MAG>

e.g. CNorth_g_h1_90 (cloudiness, North, source g, tomorrow, 90 %) or
WCenter_h2_N6 (wind, Center, two days out, 6 knots from N). Sea atoms spell
the condition "Sea" and carry no separate location (Sea_h1_65). Fractional
magnitudes write "." as "p" (0p5), with no leading zeros, no trailing zeros
after the "p", at most 9 digits before it and 6 after it.

decode_atom matches one anchored pattern of this grammar and then checks
what a pattern cannot say: the horizon is at most 366, a percentage at most
100, the source tag does not look like a horizon, and the value carries a
direction exactly when the condition is wind. It is the strict inverse of
encode_atom: it accepts exactly the strings encode_atom writes, and reports
every other string opaque.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import ForecastError, OpaqueAtomError, TheoryError, TheoryParseError
from .inputs import HORIZON_RE, MAX_HORIZON, MAX_PLACES, MILLION, has_cycle
from .model import NAME_RE, Compass, Condition, Location, Value, decimal_str

_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_SRC_RE = re.compile(r"[a-z][a-z0-9]*\Z")

CONDITION_CODES = {
    Condition.CLOUDINESS: "C",
    Condition.WIND: "W",
    Condition.SEA: "S",
    Condition.RAIN: "R",
    Condition.TEMPERATURE: "T",
    Condition.PRESSURE: "P",
    Condition.HUMIDITY: "H",
    Condition.VISIBILITY: "V",
    Condition.SNOW: "Sn",
}
_CONDITIONS_BY_CODE = {c: k for k, c in CONDITION_CODES.items() if k is not Condition.SEA}
_COMPASS = {d.value: d for d in Compass}


@dataclass(frozen=True, slots=True)
class Literal:
    atom: str
    positive: bool = True

    def __post_init__(self):
        if not _ATOM_RE.match(self.atom):
            raise TheoryError(f"bad atom {self.atom!r}")

    @classmethod
    def of(cls, atom: str, positive: bool = True) -> "Literal":
        """A literal over an atom already checked, such as encode_atom's."""
        lit = object.__new__(cls)
        object.__setattr__(lit, "atom", atom)
        object.__setattr__(lit, "positive", positive)
        return lit

    def complement(self) -> "Literal":
        return Literal.of(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else f"-{self.atom}"


def parse_literal(text: str) -> Literal:
    text = text.strip()
    if text.startswith("-"):
        return Literal(text[1:].strip(), positive=False)
    return Literal(text)


class RuleKind(Enum):
    STRICT = "->"
    DEFEASIBLE = "=>"
    DEFEATER = "~>"


@dataclass(frozen=True, slots=True)
class Rule:
    id: str
    kind: RuleKind
    body: tuple[Literal, ...]
    head: Literal

    def __post_init__(self):
        if not _ATOM_RE.match(self.id):
            raise TheoryError(f"bad rule id {self.id!r}")
        object.__setattr__(self, "body", tuple(self.body))

    @classmethod
    def of(cls, id: str, kind: RuleKind, body: tuple[Literal, ...], head: Literal) -> "Rule":
        """A rule whose id is already checked and whose body is a tuple."""
        rule = object.__new__(cls)
        object.__setattr__(rule, "id", id)
        object.__setattr__(rule, "kind", kind)
        object.__setattr__(rule, "body", body)
        object.__setattr__(rule, "head", head)
        return rule

    def __str__(self) -> str:
        body = ", ".join(map(str, self.body))
        sep = f"{body} " if body else ""
        return f"{self.id}: {sep}{self.kind.value} {self.head}"


@dataclass(frozen=True, slots=True)
class DefeasibleTheory:
    facts: tuple[Literal, ...] = ()
    rules: tuple[Rule, ...] = ()
    superiority: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "facts", tuple(self.facts))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "superiority",
                           tuple((w, l) for w, l in self.superiority))


def validate_theory(theory: DefeasibleTheory) -> None:
    """Enforce the structural invariants: unique ids, superiority pairs over
    existing rules with complementary heads, and an acyclic superiority graph."""
    by_id: dict[str, Rule] = {}
    for rule in theory.rules:
        if rule.id in by_id:
            raise TheoryError(f"duplicate rule id {rule.id!r}")
        by_id[rule.id] = rule
    for winner, loser in theory.superiority:
        for rid in (winner, loser):
            if rid not in by_id:
                raise TheoryError(f"superiority references unknown rule {rid!r}")
        head, other = by_id[winner].head, by_id[loser].head
        if head.atom != other.atom or head.positive == other.positive:
            raise TheoryError(
                f"superiority {winner} > {loser} relates non-complementary heads "
                f"({head} vs {other})"
            )
    if has_cycle(theory.superiority):
        raise TheoryError("superiority relation contains a cycle")


# ---------------------------------------------------------------------------
# Canonical atom codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DecodedAtom:
    condition: Condition
    source: Optional[str]
    location: str
    horizon: int
    value: Value


#: Tag namespace reserved for intermediate fold candidates ("xr0", "xr1", ...).
#: Real methods may not lower onto it: intermediate rounds must own their
#: atoms outright, or value-revisiting folds would entangle earlier rounds.
RESERVED_TAG_RE = re.compile(r"xr\d+\Z")


def source_tag(method: str) -> str:
    """Lowercase method tag usable inside an atom."""
    tag = method.lower()
    if not _SRC_RE.match(tag) or HORIZON_RE.match(tag):
        raise ForecastError(
            f"method id {method!r} cannot be embedded in atoms "
            "(must be alphanumeric and not look like a horizon segment)"
        )
    return tag


def method_tag(method: str) -> str:
    """The source tag of a method id, outside the fold rounds' namespace."""
    tag = source_tag(method)
    if RESERVED_TAG_RE.match(tag):
        raise ForecastError(f"method id {method!r} lowers onto the reserved tag {tag!r}")
    return tag


def atom_head(condition: Condition, location: str) -> str:
    """The <COND><LOC> head of an atom; a sea atom implies its location."""
    if condition is Condition.SEA:
        if location != "Sea":
            raise ForecastError(f"sea atoms imply location 'Sea', got {location!r}")
        return "Sea"
    return CONDITION_CODES[condition] + location


def encode_atom(
    condition: Condition,
    source: Optional[str],
    location: Union[Location, str],
    horizon: int,
    value: Value,
) -> str:
    """Canonical, injective atom for a (condition, source, slot, value) tuple."""
    name = location.name if isinstance(location, Location) else location
    if not NAME_RE.match(name):
        raise ForecastError(f"location name {name!r} cannot be embedded in an atom")
    parts = [atom_head(condition, name)]
    if source is not None:
        parts.append(source_tag(source))
    if not 0 <= horizon <= MAX_HORIZON:
        raise ForecastError(f"atoms encode horizons 0..{MAX_HORIZON}, not {horizon}")
    parts.append(f"h{horizon}")
    mag = decimal_str(value.micros).replace(".", "p")
    if condition is Condition.WIND:
        parts.append(value.direction.value + mag)
    else:
        parts.append(mag)
    return "_".join(parts)


#: The canonical atom grammar. The bounds that are not about spelling
#: (horizon <= MAX_HORIZON, percentages <= 100, a source tag that is not
#: horizon-shaped, a direction exactly for wind) are checked after the match.
_CANONICAL_ATOM_RE = re.compile(
    r"(?:Sea|(?P<code>" + "|".join(sorted(_CONDITIONS_BY_CODE, key=len, reverse=True))
    + r")(?P<loc>[A-Za-z][A-Za-z0-9]*))"
    r"(?:_(?P<src>[a-z][a-z0-9]*))?"
    r"_h(?P<horizon>0|[1-9][0-9]{0,2})"
    r"_(?P<dir>[NS][EW]?|[EW])?"
    r"(?P<int>0|[1-9][0-9]{0,8})(?:p(?P<places>[0-9]{0,5}[1-9]))?\Z"
)


def decode_atom(atom: str) -> DecodedAtom:
    """Inverse of encode_atom: one anchored match of the canonical grammar,
    then the bound checks. It accepts exactly the strings encode_atom writes
    and raises OpaqueAtomError on every other string."""
    m = _CANONICAL_ATOM_RE.match(atom)
    if m is not None:
        condition = _CONDITIONS_BY_CODE[m["code"]] if m["code"] else Condition.SEA
        horizon, source, direction = int(m["horizon"]), m["src"], m["dir"]
        micros = int(m["int"] + (m["places"] or "").ljust(MAX_PLACES, "0"))
        if (horizon <= MAX_HORIZON
                and not (micros > 100 * MILLION and condition.is_percent)
                and not (source and HORIZON_RE.match(source))
                and (direction is None) == (condition is not Condition.WIND)):
            value = Value.of(micros, _COMPASS[direction] if direction else None)
            return DecodedAtom(condition, source, m["loc"] or "Sea", horizon, value)
    raise OpaqueAtomError(f"opaque atom: {atom!r}")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_ARROWS = ("->", "=>", "~>")
_ID_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\Z")


def parse_theory(text: str) -> DefeasibleTheory:
    """Parse the line-oriented theory format; validates the result."""
    facts: list[Literal] = []
    rules: list[Rule] = []
    sups: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith(">>"):
                facts.append(_parse_literal_at(line[2:], lineno, raw))
            elif ":" in line:
                rules.append(_parse_rule(line, lineno, raw))
            elif ">" in line:
                winner, _, loser = line.partition(">")
                sups.append((_parse_id(winner, lineno, raw),
                             _parse_id(loser, lineno, raw)))
            else:
                raise TheoryParseError(lineno, 1, f"unrecognized line: {line!r}")
        except TheoryError as exc:
            if isinstance(exc, TheoryParseError):
                raise
            raise TheoryParseError(lineno, 1, str(exc)) from exc
    theory = DefeasibleTheory(tuple(facts), tuple(rules), tuple(sups))
    validate_theory(theory)
    return theory


def _parse_id(text: str, lineno: int, raw: str) -> str:
    m = _ID_RE.match(text)
    if not m:
        col = raw.find(text.strip()) + 1 if text.strip() else 1
        raise TheoryParseError(lineno, max(col, 1), f"bad identifier: {text.strip()!r}")
    return m.group(1)


def _parse_literal_at(text: str, lineno: int, raw: str) -> Literal:
    try:
        return parse_literal(text)
    except TheoryError:
        col = raw.find(text.strip()) + 1 if text.strip() else 1
        raise TheoryParseError(lineno, max(col, 1),
                               f"bad literal: {text.strip()!r}") from None


def _parse_rule(line: str, lineno: int, raw: str) -> Rule:
    rule_id, _, rest = line.partition(":")
    rid = _parse_id(rule_id, lineno, raw)
    arrow_pos = None
    for arrow in _ARROWS:
        pos = rest.find(arrow)
        if pos >= 0 and (arrow_pos is None or pos < arrow_pos[0]):
            arrow_pos = (pos, arrow)
    if arrow_pos is None:
        raise TheoryParseError(lineno, raw.find(":") + 2, "rule has no arrow")
    pos, arrow = arrow_pos
    body_text, head_text = rest[:pos], rest[pos + len(arrow):]
    body = tuple(
        _parse_literal_at(part, lineno, raw)
        for part in body_text.split(",")
        if part.strip()
    )
    head = _parse_literal_at(head_text, lineno, raw)
    return Rule(rid, RuleKind(arrow), body, head)


def serialize_theory(theory: DefeasibleTheory) -> str:
    """Canonical text: facts (given order), rules sorted by id, then
    superiority pairs (given order)."""
    lines = [f">> {fact}" for fact in theory.facts]
    lines.extend(str(rule) for rule in sorted(theory.rules, key=lambda r: r.id))
    lines.extend(f"{w} > {l}" for w, l in theory.superiority)
    return "\n".join(lines) + ("\n" if lines else "")
