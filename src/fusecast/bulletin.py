"""From reasoner conclusions to the public bulletin.

extract_scenario picks, per (condition, location, horizon) slot, the unique
positive defeasibly-provable untagged literal; render_sharp applies the
lexicon; render_smooth fills sentence templates; render_document emits
text, HTML, or structured JSON, byte-deterministically.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import attrgetter
from string import Formatter
from typing import NamedTuple, Optional

from .errors import ScenarioError, SchemaError, TemplateError
from .inputs import check_at, read_json_object
from .lexicon import DEFAULT_LEXICON, DIRECTION_PHRASES, Lexicon, classify
from .model import Condition, Value, condition_named, decimal_str
from .reasoner import ConclusionSet
from .theory import RESERVED_TAG_RE, OpaqueAtomError, decode_atom

#: Display order of conditions within a location's bulletin line.
_DISPLAY_ORDER = [Condition.CLOUDINESS, Condition.WIND, Condition.SEA, Condition.RAIN]
_DISPLAY_RANK = {c: i for i, c in enumerate(_DISPLAY_ORDER)}
_DISPLAY_RANK.update(
    (c, len(_DISPLAY_ORDER) + i) for i, c in enumerate(Condition) if c not in _DISPLAY_RANK
)


class ScenarioEntry(NamedTuple):
    condition: Condition
    location: str
    horizon: int
    value: Value
    witness: str  # the literal this entry was read from


class WeatherScenario(NamedTuple):
    """One entry per slot, in display order: horizon, then location, then
    sky / wind / sea / rain / the rest. render_sharp reads them in that order."""

    entries: tuple[ScenarioEntry, ...] = ()
    sources: tuple[str, ...] = ()  # model tags of the +d literals, sorted


def extract_scenario(conclusions: ConclusionSet) -> WeatherScenario:
    """The winning value per slot, from positive untagged decodable literals,
    and the model tags found on +d literals of either sign.

    Opaque atoms and the fold rounds' reserved tags are skipped; two distinct
    winners on one slot mean the theory was malformed and raise ScenarioError.
    Skipped undecoded: a tagged atom (four "_"-separated segments) whose tag
    was read, and a negative untagged one (three), which cannot be an entry.
    """
    by_slot: dict[tuple, ScenarioEntry] = {}
    tags: set[str] = set()   # source tags read so far, reserved ones included
    for lit in sorted(conclusions.plus_defeasible):
        segments = lit.split("_")
        if len(segments) == 4 and segments[1] in tags or len(segments) == 3 and lit[0] == "-":
            continue
        try:
            decoded = decode_atom(lit.atom)
        except OpaqueAtomError:
            continue
        if decoded.source is not None:
            tags.add(decoded.source)
            continue
        if not lit.positive:
            continue
        slot = (decoded.condition, decoded.location, decoded.horizon)
        entry = ScenarioEntry(decoded.condition, decoded.location,
                              decoded.horizon, decoded.value, str(lit))
        other = by_slot.setdefault(slot, entry)
        if other.value != entry.value:
            raise ScenarioError(
                f"incoherent scenario: both {other.witness} and {entry.witness} "
                f"hold for {decoded.condition.value} @ {decoded.location} @ h{decoded.horizon}"
            )
    entries = sorted(
        by_slot.values(),
        key=lambda e: (e.horizon, e.location, _DISPLAY_RANK[e.condition]),
    )
    return WeatherScenario(tuple(entries), tuple(sorted(
        tag for tag in tags if not RESERVED_TAG_RE.match(tag))))


# ---------------------------------------------------------------------------
# Sharp rendering
# ---------------------------------------------------------------------------

class BulletinEntry(NamedTuple):
    condition: Condition
    term: str
    phrase: Optional[str]  # direction phrase, wind only
    value: Value


class LocationBlock(NamedTuple):
    location: str
    entries: tuple[BulletinEntry, ...]


class BulletinSection(NamedTuple):
    horizon: int
    blocks: tuple[LocationBlock, ...]


class BulletinHeader(NamedTuple):
    generated_at: Optional[str] = None
    sources: tuple[str, ...] = ()


class BulletinDocument(NamedTuple):
    header: BulletinHeader = BulletinHeader()
    sections: tuple[BulletinSection, ...] = ()


def render_sharp(scenario: WeatherScenario,
                 lexicon: Lexicon = DEFAULT_LEXICON,
                 generated_at: Optional[str] = None) -> BulletinDocument:
    """Classify every scenario entry, in one pass over the scenario's
    display order: a section per horizon, a block per location. The header
    names the scenario's sources, so a bulletin rendered from conclusions
    alone names the same sources as one rendered inside the pipeline."""
    sections = []
    for horizon, at_horizon in groupby(scenario.entries, attrgetter("horizon")):
        blocks = []
        for location, at_location in groupby(at_horizon, attrgetter("location")):
            blocks.append(LocationBlock(location, tuple(
                BulletinEntry(
                    e.condition, classify(e.condition, e.value, lexicon),
                    DIRECTION_PHRASES[e.value.direction]
                    if e.condition is Condition.WIND else None,
                    e.value)
                for e in at_location)))
        sections.append(BulletinSection(horizon, tuple(blocks)))
    return BulletinDocument(BulletinHeader(generated_at, scenario.sources), tuple(sections))


# ---------------------------------------------------------------------------
# Smooth rendering
# ---------------------------------------------------------------------------

DEFAULT_FRAGMENTS: dict[Condition, str] = {
    c: "{term} {direction}" if c is Condition.WIND else "{term}" for c in Condition}


class SmoothTemplates(NamedTuple):
    """Sentence fragments per condition. `lowercase_clauses` joins the
    per-condition clauses in lowercase instead of the vocabulary casing.
    """

    fragments: dict[Condition, str] = DEFAULT_FRAGMENTS
    lowercase_clauses: bool = False


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
            condition = check_at("", key, condition_named, key)
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
                    templates: SmoothTemplates = DEFAULT_TEMPLATES) -> str:
    if format == "text":
        return render_smooth(doc, templates)
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


def _to_json(doc: BulletinDocument) -> str:
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _to_html(doc: BulletinDocument, templates: SmoothTemplates) -> str:
    import html as _html  # only this format escapes; every other command skips the import
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
    return "\n".join(parts) + "\n"
