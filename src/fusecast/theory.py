"""Defeasible theories, the canonical weather-atom codec, and the text format.

Theory text grammar (UTF-8, line oriented, "%" starts a comment):

    fact      := ">>" literal
    rule      := id ":" [literal ("," literal)*] arrow literal
    arrow     := "->" | "=>" | "~>"          (strict | defeasible | defeater)
    sup       := id ">" id
    literal   := ["-"] atom
    id, atom  := [A-Za-z][A-Za-z0-9_]*

Whitespace is free around every token, "-" included. A parse error's column
is the first character of the offending part. A blank part is reported where
it starts, just after the ":", ",", ">", ">>" or arrow before it, or at 1 when
it starts the line. A line spelled as serialize_theory writes it is read by
one match, any other by the per-token reader, to the same theory or error.

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
every other string opaque. encode_atom joins the checked slot_segments, the
"_<src>" tag and value_code; the tournament calls slot_segments once per slot
and method_tag once per method, then only joins strings per atom.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Optional

from .errors import ForecastError, OpaqueAtomError, TheoryError, TheoryParseError
from .inputs import HORIZON_RE, MAX_HORIZON, MAX_PLACES, MILLION, has_cycle
from .model import NAME_RE, Compass, Condition, Value, decimal_str

_ID = r"[A-Za-z][A-Za-z0-9_]*"
_LIT = "-?" + _ID  # a literal as fusecast writes it
_LITERAL_RE = re.compile(r"\s*(?:-\s*)?" + _ID + r"\s*\Z")
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


class Literal(str):
    """The atom, or "-" and the atom, built as `Literal(text)`: it hashes,
    sorts and joins as text, in C."""

    __slots__ = ()

    atom = property(lambda self: self[1:] if self.startswith("-") else str(self))
    positive = property(lambda self: not self.startswith("-"))

    def complement(self) -> "Literal":
        return Literal(self[1:] if self.startswith("-") else "-" + self)


def parse_literal(text: str) -> Literal:
    """A literal from text: an optional "-", then an atom in the id grammar."""
    if _LITERAL_RE.match(text) is None:
        raise TheoryError(f"bad atom {text.strip().removeprefix('-').strip()!r}")
    return Literal("".join(text.split()))


class RuleKind(Enum):
    STRICT = "->"
    DEFEASIBLE = "=>"
    DEFEATER = "~>"


class Rule(NamedTuple):
    id: str
    kind: RuleKind
    body: tuple[Literal, ...]
    head: Literal

    def __str__(self) -> str:
        body = ", ".join(self.body)
        sep = f"{body} " if body else ""
        return f"{self.id}: {sep}{self.kind.value} {self.head}"


class DefeasibleTheory(NamedTuple):
    facts: tuple[Literal, ...] = ()
    rules: tuple[Rule, ...] = ()
    superiority: tuple[tuple[str, str], ...] = ()


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
        if head != "-" + other and other != "-" + head:
            raise TheoryError(
                f"superiority {winner} > {loser} relates non-complementary heads "
                f"({head} vs {other})"
            )
    if has_cycle(theory.superiority):
        raise TheoryError("superiority relation contains a cycle")


# ---------------------------------------------------------------------------
# Canonical atom codec
# ---------------------------------------------------------------------------

class DecodedAtom(NamedTuple):
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


def check_method_id(method: object) -> None:
    """Refuse a method id no source map can carry: one that is not an
    identifier, or whose tag `method_tag` refuses. Each message reads after
    the id's path in its document."""
    if not isinstance(method, str) or not NAME_RE.match(method):
        raise ForecastError("must be an identifier matching [A-Za-z][A-Za-z0-9]*")
    method_tag(method)


def check_location(location: object) -> None:
    """Refuse a location no atom can embed: a non-string, or a string that
    is not a name. Each message reads after the location's path."""
    if not isinstance(location, str):
        raise ForecastError("must be a location name")
    if not NAME_RE.match(location):
        raise ForecastError(f"location name {location!r} must match [A-Za-z][A-Za-z0-9]*")


def atom_head(condition: Condition, location: object) -> str:
    """The <COND><LOC> head of an atom, for a location check_location
    accepts; a sea atom implies its location."""
    check_location(location)
    if condition is Condition.SEA:
        if location != "Sea":
            raise ForecastError(f"sea atoms imply location 'Sea', got {location!r}")
        return "Sea"
    return CONDITION_CODES[condition] + location


def slot_segments(condition: Condition, location: str, horizon: int) -> tuple[str, str]:
    """The checked parts of a slot's atoms: the <COND><LOC> head and the
    "_h<k>_" segment before the value code. A source tag goes between them."""
    head = atom_head(condition, location)
    if not 0 <= horizon <= MAX_HORIZON:
        raise ForecastError(f"atoms encode horizons 0..{MAX_HORIZON}, not {horizon}")
    return head, f"_h{horizon}_"


def value_code(condition: Condition, value: Value) -> str:
    """The last segment of an atom: the magnitude, after the direction for wind."""
    mag = decimal_str(value.micros).replace(".", "p")
    return value.direction.value + mag if condition is Condition.WIND else mag


def encode_atom(condition: Condition, source: Optional[str], location: str, horizon: int,
                value: Value) -> str:
    """Canonical, injective atom for a (condition, source, slot, value) tuple."""
    head, when = slot_segments(condition, location, horizon)
    tag = "" if source is None else "_" + source_tag(source)
    return head + tag + when + value_code(condition, value)


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
            value = Value(micros, _COMPASS[direction] if direction else None)
            return DecodedAtom(condition, source, m["loc"] or "Sea", horizon, value)
    raise OpaqueAtomError(f"opaque atom: {atom!r}")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_ID_RE = re.compile(r"\s*(" + _ID + r")\s*\Z")
_ARROW_RE = re.compile(r"->|=>|~>")
_KINDS = {kind.value: kind for kind in RuleKind}
#: ">> L", "id: L, L => L" (or "id: => L") and "a > b", as serialize_theory writes them.
_CANONICAL_LINE = (f">> ({_LIT})|({_ID}): (?:({_LIT}(?:, {_LIT})*) )?({_ARROW_RE.pattern}) "
                   f"({_LIT})|({_ID}) > ({_ID})")


def parse_theory(text: str) -> DefeasibleTheory:
    """Parse the line-oriented theory format; validates the result."""
    facts: list[Literal] = []
    rules: list[Rule] = []
    sups: list[tuple[str, str]] = []
    canonical = re.compile(_CANONICAL_LINE).fullmatch  # compiled on first use, then cached by re
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = canonical(raw)
        if m is not None:
            fact, rid, body, arrow, head, winner, loser = m.groups()
            if fact is not None:
                facts.append(Literal(fact))
            elif rid is not None:
                body = tuple(map(Literal, body.split(", "))) if body else ()
                rules.append(Rule(rid, _KINDS[arrow], body, Literal(head)))
            else:
                sups.append((winner, loser))
            continue
        line = raw.split("%", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(">>"):
            facts.append(_read_literal(line, line.index(">>") + 2, len(line), lineno))
        elif ":" in stripped:
            colon = line.index(":")
            rid = _read_id(line, 0, colon, lineno)
            arrow = _ARROW_RE.search(line, colon)
            if arrow is None:
                raise TheoryParseError(lineno, colon + 2, "rule has no arrow")
            body, start, stop = [], colon + 1, arrow.start()
            if line[start:stop].strip():
                for part in line[start:stop].split(","):
                    body.append(_read_literal(line, start, start + len(part), lineno))
                    start += len(part) + 1
            head = _read_literal(line, arrow.end(), len(line), lineno)
            rules.append(Rule(rid, _KINDS[arrow[0]], tuple(body), head))
        elif ">" in stripped:
            gt = line.index(">")
            sups.append((_read_id(line, 0, gt, lineno),
                         _read_id(line, gt + 1, len(line), lineno)))
        else:
            raise TheoryParseError(lineno, 1, f"unrecognized line: {stripped!r}")
    theory = DefeasibleTheory(tuple(facts), tuple(rules), tuple(sups))
    validate_theory(theory)
    return theory


def _read_id(line: str, start: int, end: int, lineno: int) -> str:
    m = _ID_RE.match(line, start, end)
    if m is None:
        raise _parse_error(line, start, end, lineno, "bad identifier")
    return m[1]


def _read_literal(line: str, start: int, end: int, lineno: int) -> Literal:
    try:
        return parse_literal(line[start:end])
    except TheoryError:
        raise _parse_error(line, start, end, lineno, "bad literal") from None


def _parse_error(line: str, start: int, end: int, lineno: int, what: str) -> TheoryParseError:
    """The error for the part line[start:end], at its first non-blank
    character, or at `start` when it is blank."""
    part = line[start:end].strip()
    column = line.find(part, start) + 1
    return TheoryParseError(lineno, column, f"{what}: {part!r}")


def serialize_theory(theory: DefeasibleTheory) -> str:
    """Canonical text: facts (given order), rules sorted by id, then
    superiority pairs (given order)."""
    lines = [f">> {fact}" for fact in theory.facts]
    lines.extend(str(rule) for rule in sorted(theory.rules, key=lambda r: r.id))
    lines.extend(f"{w} > {l}" for w, l in theory.superiority)
    return "\n".join(lines) + ("\n" if lines else "")
