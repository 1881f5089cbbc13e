"""From reasoner conclusions to the public bulletin.

extract_scenario picks, per (condition, location, horizon) slot, the unique
positive defeasibly-provable untagged literal; render_sharp applies the
lexicon; render_smooth fills sentence templates; render_document emits
text, HTML, or structured JSON, byte-deterministically.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from string import Formatter
from typing import Mapping, Optional

from .errors import ScenarioError, SchemaError, TemplateError
from .inputs import read_json_object
from .lexicon import DEFAULT_LEXICON, LexiconTable, classify, direction_name
from .model import Condition, Value, decimal_str
from .reasoner import ConclusionSet
from .theory import RESERVED_TAG_RE, OpaqueAtomError, decode_atom

#: Display order of conditions within a location's bulletin line.
_DISPLAY_ORDER = [Condition.CLOUDINESS, Condition.WIND, Condition.SEA, Condition.RAIN]
_DISPLAY_RANK = {c: i for i, c in enumerate(_DISPLAY_ORDER)}
_DISPLAY_RANK.update(
    (c, len(_DISPLAY_ORDER) + i) for i, c in enumerate(Condition) if c not in _DISPLAY_RANK
)


@dataclass(frozen=True, slots=True)
class ScenarioEntry:
    condition: Condition
    location: str
    horizon: int
    value: Value
    witness: str   # the literal this entry was read from
    strength: str  # "+D" (fact-backed) or "+d"


@dataclass(frozen=True, slots=True)
class WeatherScenario:
    entries: tuple[ScenarioEntry, ...] = ()
    sources: tuple[str, ...] = ()  # model tags of the +d literals, sorted

    def at(self, horizon: int) -> list[ScenarioEntry]:
        return [e for e in self.entries if e.horizon == horizon]

    def horizons(self) -> list[int]:
        return sorted({e.horizon for e in self.entries})


def extract_scenario(conclusions: ConclusionSet) -> WeatherScenario:
    """The winning value per slot, from positive untagged decodable literals,
    and the model tags found on +d literals of either sign.

    Opaque atoms and the fold rounds' reserved tags are skipped; two distinct
    winners on one slot mean the theory was malformed and raise ScenarioError.
    """
    by_slot: dict[tuple, ScenarioEntry] = {}
    sources: set[str] = set()
    for lit in sorted(conclusions.plus_defeasible, key=str):
        try:
            decoded = decode_atom(lit.atom)
        except OpaqueAtomError:
            continue
        if decoded.source is not None:
            if not RESERVED_TAG_RE.match(decoded.source):
                sources.add(decoded.source)
            continue
        if not lit.positive:
            continue
        slot = (decoded.condition, decoded.location, decoded.horizon)
        strength = "+D" if lit in conclusions.plus_definite else "+d"
        entry = ScenarioEntry(decoded.condition, decoded.location,
                              decoded.horizon, decoded.value, str(lit), strength)
        other = by_slot.get(slot)
        if other is not None and other.value != entry.value:
            raise ScenarioError(
                f"incoherent scenario: both {other.witness} and {entry.witness} "
                f"hold for {decoded.condition.value} @ {decoded.location} @ h{decoded.horizon}"
            )
        if other is None:
            by_slot[slot] = entry
    entries = sorted(
        by_slot.values(),
        key=lambda e: (e.horizon, e.location, _DISPLAY_RANK[e.condition]),
    )
    return WeatherScenario(tuple(entries), tuple(sorted(sources)))


# ---------------------------------------------------------------------------
# Sharp rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BulletinEntry:
    condition: Condition
    term: str
    phrase: Optional[str]  # direction phrase, wind only
    value: Value


@dataclass(frozen=True, slots=True)
class LocationBlock:
    location: str
    entries: tuple[BulletinEntry, ...]


@dataclass(frozen=True, slots=True)
class BulletinSection:
    horizon: int
    blocks: tuple[LocationBlock, ...]


@dataclass(frozen=True, slots=True)
class BulletinHeader:
    generated_at: Optional[str] = None
    sources: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class BulletinDocument:
    header: BulletinHeader = BulletinHeader()
    sections: tuple[BulletinSection, ...] = ()


def render_sharp(scenario: WeatherScenario,
                 lexicon: LexiconTable = DEFAULT_LEXICON,
                 header: BulletinHeader = BulletinHeader()) -> BulletinDocument:
    """Classify every scenario entry; deterministic ordering throughout
    (horizon asc, location asc, then sky / wind / sea / rain / the rest)."""
    sections = []
    for horizon in scenario.horizons():
        blocks: dict[str, list[BulletinEntry]] = {}
        for entry in scenario.at(horizon):
            term = classify(entry.condition, entry.value, lexicon)
            phrase = None
            if entry.condition is Condition.WIND:
                phrase = direction_name(entry.value.direction)
            blocks.setdefault(entry.location, []).append(
                BulletinEntry(entry.condition, term, phrase, entry.value))
        sections.append(BulletinSection(
            horizon,
            tuple(
                LocationBlock(loc, tuple(sorted(
                    blocks[loc], key=lambda e: _DISPLAY_RANK[e.condition])))
                for loc in sorted(blocks)
            ),
        ))
    return BulletinDocument(header, tuple(sections))


# ---------------------------------------------------------------------------
# Smooth rendering
# ---------------------------------------------------------------------------

DEFAULT_FRAGMENTS: dict[Condition, str] = {
    Condition.CLOUDINESS: "{term}",
    Condition.WIND: "{term} {direction}",
    Condition.SEA: "{term}",
    Condition.RAIN: "{term}",
    Condition.TEMPERATURE: "{term}",
    Condition.PRESSURE: "{term}",
    Condition.HUMIDITY: "{term}",
    Condition.SNOW: "{term}",
    Condition.VISIBILITY: "{term}",
}


@dataclass(frozen=True, slots=True)
class SmoothTemplates:
    """Sentence fragments per condition. `lowercase_clauses` joins the
    per-condition clauses in lowercase instead of the vocabulary casing.
    """

    fragments: Mapping[Condition, str] = field(
        default_factory=lambda: dict(DEFAULT_FRAGMENTS))
    lowercase_clauses: bool = False

    def __post_init__(self):
        object.__setattr__(self, "fragments", dict(self.fragments))


DEFAULT_TEMPLATES = SmoothTemplates()


def render_smooth(doc: BulletinDocument,
                  templates: SmoothTemplates = DEFAULT_TEMPLATES) -> str:
    """One sentence per location: "North: Mostly Cloudy, Light Winds from
    North East." Horizon sections are separated by their heading lines."""
    lines: list[str] = []
    for si, section in enumerate(doc.sections):
        if si:
            lines.append("")
        lines.append(horizon_heading(section.horizon))
        for block in section.blocks:
            lines.append(f"{block.location}: {_sentence_body(block, templates)}.")
    return "\n".join(lines) + ("\n" if lines else "")


def _sentence_body(block: LocationBlock, templates: SmoothTemplates) -> str:
    clauses = []
    for entry in block.entries:
        fragment = templates.fragments.get(entry.condition)
        if fragment is None:
            raise TemplateError(f"no template for condition {entry.condition.value!r}")
        try:
            clause = fragment.format(term=entry.term, direction=entry.phrase or "")
        except (KeyError, IndexError) as exc:
            raise TemplateError(f"bad template for {entry.condition.value!r}: {exc}")
        if templates.lowercase_clauses:
            clause = clause.lower()
        clauses.append(clause.strip())
    return ", ".join(clauses)


def horizon_heading(horizon: int) -> str:
    if horizon == 0:
        return "Current conditions"
    if horizon == 1:
        return "Tomorrow"
    if horizon == 2:
        return "Day after tomorrow"
    return f"In {horizon} days"


def load_templates(data: bytes) -> SmoothTemplates:
    """Template override file: a flat mapping of condition kinds to fragments
    with {term}/{direction} placeholders, plus an optional lowercase switch:

        {"wind": "{term} {direction}", "sea": "sea state {term}",
         "lowercase_clauses": false}
    """
    doc = read_json_object(data)
    fragments = dict(DEFAULT_FRAGMENTS)
    lowercase = False
    for key, value in doc.items():
        if key == "lowercase_clauses":
            if not isinstance(value, bool):
                raise SchemaError(key, "must be a boolean")
            lowercase = value
        else:
            try:
                condition = Condition(key)
            except ValueError:
                raise SchemaError(key, "unknown condition kind") from None
            if not isinstance(value, str) or not _plain_fragment(value):
                raise SchemaError(key, "fragment must be a string whose only "
                                       "placeholders are {term} and {direction}")
            fragments[condition] = value
    return SmoothTemplates(fragments=fragments, lowercase_clauses=lowercase)


def _plain_fragment(fragment: str) -> bool:
    """No format spec, conversion or attribute: a template cannot make
    rendering fail or allocate without bound."""
    try:
        fields = list(Formatter().parse(fragment))
    except ValueError:
        return False
    return all(name in (None, "term", "direction") and not spec and not conversion
               for _, name, spec, conversion in fields)


# ---------------------------------------------------------------------------
# Document rendering
# ---------------------------------------------------------------------------

def render_document(doc: BulletinDocument, format: str = "text",
                    templates: SmoothTemplates = DEFAULT_TEMPLATES) -> bytes:
    if format == "text":
        return render_smooth(doc, templates).encode("utf-8")
    if format == "json":
        return _to_json(doc)
    if format == "html":
        return _to_html(doc, templates)
    raise SchemaError("format", f"unknown output format {format!r}")


def _entry_dict(entry: BulletinEntry) -> dict:
    return {
        "condition": entry.condition.value,
        "term": entry.term,
        "phrase": entry.phrase,
        "magnitude": decimal_str(entry.value.micros),
        "direction": entry.value.direction.value if entry.value.direction else None,
    }


def _to_json(doc: BulletinDocument) -> bytes:
    payload = {
        "header": {
            "generated_at": doc.header.generated_at,
            "sources": list(doc.header.sources),
        },
        "sections": [
            {
                "horizon": section.horizon,
                "heading": horizon_heading(section.horizon),
                "locations": {
                    block.location: [_entry_dict(e) for e in block.entries]
                    for block in section.blocks
                },
            }
            for section in doc.sections
        ],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _to_html(doc: BulletinDocument, templates: SmoothTemplates) -> bytes:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Weather bulletin</title></head><body>",
        "<h1>Weather bulletin</h1>",
    ]
    if doc.header.sources:
        srcs = _html.escape(", ".join(doc.header.sources))
        parts.append(f"<p>Sources: {srcs}</p>")
    for section in doc.sections:
        parts.append(f"<h2>{_html.escape(horizon_heading(section.horizon))}</h2>")
        parts.append("<ul>")
        for block in section.blocks:
            body = _sentence_body(block, templates)
            parts.append(
                f"<li><strong>{_html.escape(block.location)}</strong>: "
                f"{_html.escape(body)}.</li>")
        parts.append("</ul>")
    parts.append("</body></html>")
    return ("\n".join(parts) + "\n").encode("utf-8")
