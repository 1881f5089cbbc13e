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
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from string import Formatter
from typing import Mapping, Optional

from .errors import ForecastError, ScenarioError, SchemaError, TemplateError
from .inputs import exact_number, parse_horizon, read_json_object
from .lexicon import DEFAULT_LEXICON, LexiconTable, classify, direction_name
from .model import Compass, Condition, Value, decimal_str, make_value
from .reasoner import ConclusionSet
from .theory import RESERVED_TAG_RE, OpaqueAtomError, decode_atom

#: Display order of conditions within a location's bulletin line.
_DISPLAY_ORDER = [Condition.CLOUDINESS, Condition.WIND, Condition.SEA, Condition.RAIN]
_DISPLAY_RANK = {c: i for i, c in enumerate(_DISPLAY_ORDER)}
_DISPLAY_RANK.update(
    (c, len(_DISPLAY_ORDER) + i) for i, c in enumerate(Condition) if c not in _DISPLAY_RANK
)


@dataclass(frozen=True)
class ScenarioEntry:
    condition: Condition
    location: str
    horizon: int
    value: Value
    witness: str   # the literal this entry was read from
    strength: str  # "+D" (fact-backed) or "+d"


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class BulletinEntry:
    condition: Condition
    term: str
    phrase: Optional[str]  # direction phrase, wind only
    value: Value


@dataclass(frozen=True)
class LocationBlock:
    location: str
    entries: tuple[BulletinEntry, ...]


@dataclass(frozen=True)
class BulletinSection:
    horizon: int
    blocks: tuple[LocationBlock, ...]


@dataclass(frozen=True)
class BulletinHeader:
    generated_at: Optional[str] = None
    sources: tuple[str, ...] = ()


@dataclass(frozen=True)
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
                phrase = direction_name(entry.value.direction, lexicon)
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


@dataclass(frozen=True)
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
        "magnitude": decimal_str(entry.value.magnitude),
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


_REQUIRED = object()
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", Decimal: "a number"}


def _field(obj: dict, key: str, path: str, kind: type, default=_REQUIRED):
    """obj[key] checked to be a `kind`. A missing key gives `default`, and so
    does null when the default is None; with no default it is an error."""
    value = obj.get(key, default)
    if value is _REQUIRED or not (isinstance(value, kind) or value is default):
        path = f"{path}.{key}" if path else key
        raise SchemaError(path, "missing" if value is _REQUIRED
                          else f"must be {_TYPE_NAMES[kind]}")
    return value


def _known_keys(obj: dict, path: str, keys: tuple[str, ...]) -> None:
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")


def _enum(kind, value: str, path: str):
    try:
        return kind(value)
    except ValueError:
        raise SchemaError(path, f"unknown {kind.__name__.lower()} {value!r}") from None


def _decimal(text: str, path: str) -> Fraction:
    try:
        return exact_number(Decimal(text), path)
    except InvalidOperation:
        raise SchemaError(path, "must be a decimal number") from None


def bulletin_from_json(data: bytes) -> BulletinDocument:
    """Inverse of the JSON rendering (headings are recomputed, not trusted).

    A missing or unknown key or a value of the wrong type is a SchemaError
    naming its path, e.g. "sections[0].locations.North[1].condition".
    """
    payload = read_json_object(data)
    _known_keys(payload, "", ("header", "sections"))
    head = _field(payload, "header", "", dict, {})
    _known_keys(head, "header", ("generated_at", "sources"))
    sources = _field(head, "sources", "header", list, [])
    if not all(isinstance(s, str) for s in sources):
        raise SchemaError("header.sources", "must be a list of strings")
    header = BulletinHeader(_field(head, "generated_at", "header", str, None), tuple(sources))
    sections = []
    for i, section in enumerate(_field(payload, "sections", "", list, [])):
        path = f"sections[{i}]"
        if not isinstance(section, dict):
            raise SchemaError(path, "must be an object")
        _known_keys(section, path, ("horizon", "heading", "locations"))
        horizon = _field(section, "horizon", path, Decimal)
        try:
            horizon = parse_horizon(f"h{horizon}")
        except ForecastError as exc:
            raise SchemaError(f"{path}.horizon", str(exc)) from None
        locations = _field(section, "locations", path, dict, {})
        blocks = []
        for location in sorted(locations):
            entries = []
            for j, raw in enumerate(_field(locations, location, f"{path}.locations", list)):
                at = f"{path}.locations.{location}[{j}]"
                if not isinstance(raw, dict):
                    raise SchemaError(at, "must be an object")
                _known_keys(raw, at, ("condition", "term", "phrase", "magnitude", "direction"))
                condition = _enum(Condition, _field(raw, "condition", at, str),
                                  f"{at}.condition")
                direction = _field(raw, "direction", at, str, None)
                direction = _enum(Compass, direction, f"{at}.direction") if direction else None
                term = _field(raw, "term", at, str)
                phrase = _field(raw, "phrase", at, str, None)
                magnitude = _decimal(_field(raw, "magnitude", at, str), f"{at}.magnitude")
                try:
                    value = make_value(condition, magnitude, direction)
                except ForecastError as exc:
                    raise SchemaError(at, str(exc)) from None
                entries.append(BulletinEntry(condition, term, phrase, value))
            blocks.append(LocationBlock(location, tuple(entries)))
        sections.append(BulletinSection(horizon, tuple(blocks)))
    return BulletinDocument(header, tuple(sections))


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
