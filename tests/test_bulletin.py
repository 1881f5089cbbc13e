import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.bulletin import (
    _DISPLAY_RANK,
    DEFAULT_TEMPLATES,
    BulletinDocument,
    BulletinEntry,
    BulletinHeader,
    BulletinSection,
    LocationBlock,
    ScenarioEntry,
    WeatherScenario,
    extract_scenario,
    horizon_heading,
    load_templates,
    render_document,
    render_sharp,
    render_smooth,
)
from fusecast.errors import LexiconError, OpaqueAtomError, ScenarioError, TemplateError
from fusecast.lexicon import DEFAULT_LEXICON, DIRECTION_PHRASES, classify, load_lexicon
from fusecast.model import Compass, Condition
from fusecast.reasoner import ConclusionSet, conclusions
from fusecast.theory import RESERVED_TAG_RE, Literal, decode_atom


def cs_with(*atoms, definite=()):
    plus = frozenset(Literal(a) for a in atoms) | frozenset(
        Literal(a) for a in definite)
    return ConclusionSet(
        plus_definite=frozenset(Literal(a) for a in definite),
        minus_definite=frozenset(),
        plus_defeasible=plus,
        minus_defeasible=frozenset(),
    )


@pytest.fixture(scope="module")
def seaside_scenario(seaside_theory):
    return extract_scenario(conclusions(seaside_theory))


def _at(scenario, horizon):
    return [e for e in scenario.entries if e.horizon == horizon]


class TestExtractScenario:
    def test_seaside_slots(self, seaside_scenario):
        assert len(_at(seaside_scenario, 1)) == 7
        assert len(_at(seaside_scenario, 2)) == 7
        assert len(_at(seaside_scenario, 0)) == 7  # observation facts

    def test_seaside_values_follow_the_more_accurate_model(self, seaside_scenario):
        north_h1 = {e.condition: e for e in _at(seaside_scenario, 1)
                    if e.location == "North"}
        assert north_h1[Condition.CLOUDINESS].value.magnitude == 77
        wind = north_h1[Condition.WIND].value
        assert (wind.direction, wind.magnitude) == (Compass.NE, 5)

    def test_empty(self):
        assert extract_scenario(ConclusionSet()).entries == ()

    def test_tagged_and_opaque_atoms_ignored(self):
        sc = extract_scenario(cs_with("CNorth_g_h1_90", "hello", "CNorth_h1_78"))
        assert [e.witness for e in sc.entries] == ["CNorth_h1_78"]

    def test_negative_literals_ignored(self):
        cs = ConclusionSet(plus_defeasible=frozenset([Literal("-CNorth_h1_88")]))
        assert extract_scenario(cs).entries == ()

    def test_two_winners_on_one_slot_is_incoherent(self):
        with pytest.raises(ScenarioError):
            extract_scenario(cs_with("CNorth_h1_70", "CNorth_h1_80"))

    def test_provenance_is_checkable(self, seaside_theory):
        cs = conclusions(seaside_theory)
        for entry in extract_scenario(cs).entries:
            witness = Literal(entry.witness)
            assert witness in cs.plus_defeasible


def _reference_scenario(cs: ConclusionSet) -> WeatherScenario:
    """extract_scenario as a loop that decodes every +d literal."""
    by_slot: dict[tuple, ScenarioEntry] = {}
    sources: set[str] = set()
    for q in sorted(cs.plus_defeasible, key=str):
        try:
            decoded = decode_atom(q.atom)
        except OpaqueAtomError:
            continue
        if decoded.source is not None:
            if not RESERVED_TAG_RE.match(decoded.source):
                sources.add(decoded.source)
            continue
        if not q.positive:
            continue
        slot = (decoded.condition, decoded.location, decoded.horizon)
        entry = ScenarioEntry(decoded.condition, decoded.location, decoded.horizon,
                              decoded.value, str(q))
        other = by_slot.setdefault(slot, entry)
        if other.value != entry.value:
            raise ScenarioError(
                f"incoherent scenario: both {other.witness} and {entry.witness} "
                f"hold for {decoded.condition.value} @ {decoded.location} @ h{decoded.horizon}")
    entries = sorted(by_slot.values(),
                     key=lambda e: (e.horizon, e.location, _DISPLAY_RANK[e.condition]))
    return WeatherScenario(tuple(entries), tuple(sorted(sources)))


_HEADS = st.sampled_from(["CNorth", "CSouth", "RNorth", "Sea"])
_MAGS = st.sampled_from(["0", "25", "50", "0p5", "100"])
_SLOT = st.tuples(_HEADS, st.integers(0, 2))
_UNTAGGED = st.builds(lambda slot, mag: f"{slot[0]}_h{slot[1]}_{mag}", _SLOT, _MAGS)
_TAGGED = st.builds(lambda slot, tag, mag: f"{slot[0]}_{tag}_h{slot[1]}_{mag}", _SLOT,
                    st.sampled_from(["gfs", "ecmwf", "icon2", "xr0", "xr1", "xr12"]), _MAGS)
#: Not canonical: a percentage over 100 behind a real or a reserved tag, a
#: horizon-shaped tag, two tags, no value, a wind value with no direction.
_OPAQUE = st.sampled_from(["Foo", "xr0", "CNorth_h1", "CNorth_gfs_h1_500",
                           "CNorth_xr0_h1_500", "CNorth_h2_h1_50", "CNorth_gfs_xr0_h1_5",
                           "WNorth_gfs_h1_12", "CNorth_h400_75"])


@st.composite
def _conclusions(draw):
    """+d literals: tagged and opaque atoms of either sign, repeated tags,
    negative untagged literals, one consistent winner per drawn slot, and
    maybe one more untagged positive that may clash with a winner."""
    plus = {Literal(text if draw(st.booleans()) else "-" + text)
            for text in draw(st.lists(st.one_of(_TAGGED, _OPAQUE), max_size=40))}
    plus.update(Literal("-" + text) for text in draw(st.lists(_UNTAGGED, max_size=5)))
    winners = draw(st.dictionaries(_SLOT, _MAGS, max_size=6))
    plus.update(Literal(f"{head}_h{k}_{mag}") for (head, k), mag in winners.items())
    plus.update(map(Literal, draw(st.lists(_UNTAGGED, max_size=1))))
    definite = frozenset(q for q in sorted(plus) if draw(st.booleans()))
    return ConclusionSet(plus_definite=definite, plus_defeasible=frozenset(plus))


def _outcome(extract, cs):
    try:
        return extract(cs)
    except ScenarioError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(_conclusions())
def test_extract_scenario_equals_decoding_every_literal(cs):
    """Skipping a literal whose tag was already read changes nothing."""
    assert _outcome(extract_scenario, cs) == _outcome(_reference_scenario, cs)


class TestRenderSharp:
    def test_seaside_day1(self, seaside_scenario):
        doc = render_sharp(seaside_scenario)
        section = next(s for s in doc.sections if s.horizon == 1)
        north = next(b for b in section.blocks if b.location == "North")
        assert [(e.term, e.phrase) for e in north.entries] == [
            ("Mostly Cloudy", None), ("Light Winds", "from North East")]
        sea = next(b for b in section.blocks if b.location == "Sea")
        assert [e.term for e in sea.entries] == ["Slight"]

    def test_seaside_day2_sea_is_calm(self, seaside_scenario):
        doc = render_sharp(seaside_scenario)
        section = next(s for s in doc.sections if s.horizon == 2)
        sea = next(b for b in section.blocks if b.location == "Sea")
        assert [e.term for e in sea.entries] == ["Calm"]

    def test_empty_scenario(self):
        doc = render_sharp(extract_scenario(ConclusionSet()))
        assert doc.sections == ()


def _reference_sharp(scenario, lexicon):
    """render_sharp as it was when it grouped and sorted the entries itself,
    with the header it now builds from the scenario's sources."""
    sections = []
    for horizon in sorted({e.horizon for e in scenario.entries}):
        blocks: dict[str, list[BulletinEntry]] = {}
        for entry in [e for e in scenario.entries if e.horizon == horizon]:
            term = classify(entry.condition, entry.value, lexicon)
            phrase = None
            if entry.condition is Condition.WIND:
                phrase = DIRECTION_PHRASES[entry.value.direction]
            blocks.setdefault(entry.location, []).append(
                BulletinEntry(entry.condition, term, phrase, entry.value))
        sections.append(BulletinSection(horizon, tuple(
            LocationBlock(loc, tuple(sorted(
                blocks[loc], key=lambda e: _DISPLAY_RANK[e.condition])))
            for loc in sorted(blocks))))
    return BulletinDocument(BulletinHeader(None, scenario.sources), tuple(sections))


#: Values per condition code; temperature has no default bands.
_VALUE_CODES = {"C": ["0", "30", "78", "100"], "W": ["N6", "NE15", "SW0p5", "E40"],
                "S": ["0", "58", "190"], "R": ["0", "4", "24"], "T": ["12", "30"]}
_RENDER_HEADS = st.sampled_from(["CNorth", "CSouth", "WNorth", "WCenter", "RNorth",
                                 "RSouth", "Sea", "TNorth", "TCenter"])
_TEMPERATURE_LEXICON = load_lexicon(b'{"temperature": [[20, "Mild"], [null, "Hot"]]}')


@st.composite
def _renderable_conclusions(draw):
    """One positive untagged winner per drawn slot, among tagged and opaque noise."""
    slots = draw(st.lists(st.tuples(_RENDER_HEADS, st.integers(0, 3)),
                          unique=True, max_size=14))
    plus = {Literal(f"{head}_h{k}_{draw(st.sampled_from(_VALUE_CODES[head[0]]))}")
            for head, k in slots}
    plus.update(Literal(text if draw(st.booleans()) else "-" + text)
                for text in draw(st.lists(st.one_of(_TAGGED, _OPAQUE), max_size=10)))
    return ConclusionSet(plus_defeasible=frozenset(plus))


@settings(max_examples=200, deadline=None)
@given(_renderable_conclusions(), st.sampled_from([DEFAULT_LEXICON, _TEMPERATURE_LEXICON]))
def test_render_sharp_equals_grouping_and_sorting_the_entries(cs, lexicon):
    """One pass over extract_scenario's order builds the document that
    grouping by horizon and location and sorting each block built."""
    scenario = extract_scenario(cs)

    def outcome(render):
        try:
            return render(scenario, lexicon)
        except LexiconError as exc:
            return str(exc)

    assert outcome(render_sharp) == outcome(_reference_sharp)


class TestRenderSmooth:
    def test_seaside_day1_lines(self, seaside_scenario):
        text = render_smooth(render_sharp(seaside_scenario))
        assert "North: Mostly Cloudy, Light Winds from North East." in text
        assert "Center: Mostly Cloudy, Light Winds from North East." in text
        assert "South: Mostly Cloudy, Light Winds from North." in text
        assert "Sea: Slight." in text

    def test_single_condition_makes_a_single_clause(self):
        doc = render_sharp(extract_scenario(cs_with("CNorth_h1_78")))
        assert render_smooth(doc) == "Tomorrow\nNorth: Mostly Cloudy.\n"

    def test_missing_template_is_an_error(self, seaside_scenario):
        doc = render_sharp(seaside_scenario)
        broken = {Condition.CLOUDINESS: "{term}"}
        with pytest.raises(TemplateError):
            render_smooth(doc, broken)


def _entry(condition, term, magnitude, direction=None, phrase=None):
    return {"condition": condition, "term": term, "phrase": phrase,
            "magnitude": magnitude, "direction": direction}


def _land(sky, cloud, wind, speed, direction, phrase):
    return [_entry("cloudiness", sky, cloud),
            _entry("wind", wind, speed, direction, f"from {phrase}")]


def _section(horizon, heading, sea, **land):
    return {"horizon": horizon, "heading": heading,
            "locations": {**land, "Sea": [_entry("sea", *sea)]}}


#: The JSON bulletin of the seaside fixture, spelled out entry by entry.
SEASIDE_BULLETIN_JSON = {
    "header": {"generated_at": "h0", "sources": ["ecmwf", "gfs"]},
    "sections": [
        _section(0, "Current conditions", ("Moderate", "190"),
                 Center=_land("Cloudy", "90", "Moderate Winds", "15", "NE", "North East"),
                 North=_land("Cloudy", "90", "Moderate Winds", "15", "NE", "North East"),
                 South=_land("Cloudy", "90", "Moderate Winds", "15", "NE", "North East")),
        _section(1, "Tomorrow", ("Slight", "58"),
                 Center=_land("Mostly Cloudy", "77", "Light Winds", "5", "NE", "North East"),
                 North=_land("Mostly Cloudy", "77", "Light Winds", "5", "NE", "North East"),
                 South=_land("Mostly Cloudy", "77", "Light Winds", "5", "N", "North")),
        _section(2, "Day after tomorrow", ("Calm", "28"),
                 Center=_land("Mostly Cloudy", "42", "Light Winds", "6", "N", "North"),
                 North=_land("Mostly Cloudy", "42", "Light Winds", "6", "N", "North"),
                 South=_land("Mostly Cloudy", "42", "Light Winds", "5", "N", "North")),
    ],
}


class TestRenderDocument:
    def test_headings(self):
        assert horizon_heading(0) == "Current conditions"
        assert horizon_heading(1) == "Tomorrow"
        assert horizon_heading(2) == "Day after tomorrow"
        assert horizon_heading(5) == "In 5 days"

    def test_text_contains_both_day_tables(self, seaside_scenario):
        text = render_document(render_sharp(seaside_scenario), "text")
        assert "Tomorrow" in text and "Day after tomorrow" in text

    def test_deterministic(self, seaside_scenario):
        doc = render_sharp(seaside_scenario, generated_at="h0")
        for fmt in ("text", "json", "html"):
            text = render_document(doc, fmt)
            assert type(text) is str and text == render_document(doc, fmt)

    def test_json_round_trip(self, seaside_scenario):
        doc = render_sharp(seaside_scenario, generated_at="h0")
        assert json.loads(render_document(doc, "json")) == SEASIDE_BULLETIN_JSON

    def test_empty_document_json(self):
        from fusecast.bulletin import BulletinDocument

        data = render_document(BulletinDocument(), "json")
        assert json.loads(data) == {"header": {"generated_at": None, "sources": []},
                                    "sections": []}

    def test_html_escapes_and_carries_lines(self, seaside_scenario):
        html = render_document(render_sharp(seaside_scenario), "html")
        assert "<strong>North</strong>: Mostly Cloudy, Light Winds from North East." in html

    def test_unknown_format(self, seaside_scenario):
        from fusecast.errors import SchemaError

        with pytest.raises(SchemaError):
            render_document(render_sharp(seaside_scenario), "pdf")


class TestTemplateLoading:
    def test_default_fragments(self):
        """Every condition's clause is its term; wind's adds the direction."""
        assert DEFAULT_TEMPLATES == {
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

    def test_override_fragment(self):
        templates = load_templates(b'{"sea": "sea state {term}"}')
        assert templates[Condition.SEA] == "sea state {term}"
        assert templates[Condition.WIND] == "{term} {direction}"

    def test_unknown_condition_rejected(self):
        """A key names a condition; the old `lowercase_clauses` switch is
        refused as any other unknown one, never ignored."""
        from fusecast.errors import SchemaError

        for key in ("fog", "lowercase_clauses"):
            with pytest.raises(SchemaError) as err:
                load_templates(json.dumps({key: "{term}"}).encode())
            assert str(err.value) == f"{key}: unknown condition kind {key!r}"

    @pytest.mark.parametrize("fragment", [
        "{term.upper}", "{term:>999999999}", "{term!r}", "{0}", "{", "{term[0]}",
    ])
    def test_fragment_that_would_fail_to_render_rejected(self, fragment):
        from fusecast.errors import SchemaError

        with pytest.raises(SchemaError, match="placeholders"):
            load_templates(json.dumps({"wind": fragment}).encode())
