"""A reference theory reader for the differential tests of `fusecast.theory`.

It is the reader as it was before each token kind got one pattern: a strip,
a sign test and a regex per literal, and three `find`s for the arrow. Two
things differ from that reader. An error's column is searched for from where
the offending part starts, not from the start of the line, so a bad part is
not reported at an earlier copy of its text. And a blank part is reported
where it starts, not at column 1; the rule id and the superiority winner
start the line, so they are searched for from 0.
"""

from __future__ import annotations

import re

from fusecast.errors import TheoryError, TheoryParseError
from fusecast.theory import DefeasibleTheory, Literal, Rule, RuleKind, validate_theory

_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_ID_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\Z")
_ARROWS = ("->", "=>", "~>")


def parse_literal(text: str) -> Literal:
    text = text.strip()
    positive = not text.startswith("-")
    atom = text if positive else text[1:].strip()
    if not _ATOM_RE.match(atom):
        raise TheoryError(f"bad atom {atom!r}")
    return Literal(atom if positive else "-" + atom)


def parse_theory(text: str) -> DefeasibleTheory:
    facts: list[Literal] = []
    rules: list[Rule] = []
    sups: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        at = len(raw) - len(raw.lstrip())  # where `line` starts in `raw`
        if line.startswith(">>"):
            facts.append(_parse_literal_at(line[2:], lineno, raw, at + 2))
        elif ":" in line:
            rules.append(_parse_rule(line, lineno, raw, at))
        elif ">" in line:
            winner, _, loser = line.partition(">")
            sups.append((_parse_id(winner, lineno, raw, 0),
                         _parse_id(loser, lineno, raw, at + len(winner) + 1)))
        else:
            raise TheoryParseError(lineno, 1, f"unrecognized line: {line!r}")
    theory = DefeasibleTheory(tuple(facts), tuple(rules), tuple(sups))
    validate_theory(theory)
    return theory


def _column(text: str, raw: str, at: int) -> int:
    return raw.find(text.strip(), at) + 1


def _parse_id(text: str, lineno: int, raw: str, at: int) -> str:
    m = _ID_RE.match(text)
    if not m:
        raise TheoryParseError(lineno, _column(text, raw, at),
                               f"bad identifier: {text.strip()!r}")
    return m.group(1)


def _parse_literal_at(text: str, lineno: int, raw: str, at: int) -> Literal:
    try:
        return parse_literal(text)
    except TheoryError:
        raise TheoryParseError(lineno, _column(text, raw, at),
                               f"bad literal: {text.strip()!r}") from None


def _parse_rule(line: str, lineno: int, raw: str, at: int) -> Rule:
    rule_id, _, rest = line.partition(":")
    rid = _parse_id(rule_id, lineno, raw, 0)
    arrow_pos = None
    for arrow in _ARROWS:
        pos = rest.find(arrow)
        if pos >= 0 and (arrow_pos is None or pos < arrow_pos[0]):
            arrow_pos = (pos, arrow)
    if arrow_pos is None:
        raise TheoryParseError(lineno, raw.find(":") + 2, "rule has no arrow")
    pos, arrow = arrow_pos
    body_text, head_text = rest[:pos], rest[pos + len(arrow):]
    rest_at = at + len(rule_id) + 1
    body = []
    if body_text.strip():
        part_at = rest_at
        for part in body_text.split(","):
            body.append(_parse_literal_at(part, lineno, raw, part_at))
            part_at += len(part) + 1
    head = _parse_literal_at(head_text, lineno, raw, rest_at + pos + len(arrow))
    return Rule(rid, RuleKind(arrow), tuple(body), head)
