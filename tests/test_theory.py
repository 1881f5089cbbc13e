import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.errors import (
    ForecastError,
    OpaqueAtomError,
    SchemaError,
    TheoryError,
    TheoryParseError,
)
from fusecast.inputs import exact_number, parse_horizon
from fusecast.model import Compass, Condition, Value, check_value
from fusecast import reasoner
from fusecast import theory as theory_module
from fusecast.reasoner import conclusions_from_json
from fusecast.theory import (
    CONDITION_CODES,
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    decode_atom,
    encode_atom,
    parse_literal,
    parse_theory,
    serialize_theory,
    validate_theory,
)

import reference_reader
from conftest import FIXTURES
from genutil import random_theory

M = 1_000_000  # one unit in millionths


class TestLiteral:
    def test_complement_involution(self):
        lit = Literal("CNorth_h1_78")
        assert lit.complement().complement() == lit
        assert str(lit.complement()) == "-CNorth_h1_78"

    def test_atom_grammar_enforced(self):
        for atom in ("9abc", "a b", "1x"):
            for text in (atom, f"-{atom}"):
                with pytest.raises(TheoryError, match="bad atom"):
                    parse_literal(text)
            with pytest.raises(TheoryParseError, match="bad literal") as err:
                parse_theory(f"r1: => A\n  >> {atom}\n")
            assert (err.value.line, err.value.column) == (2, 6)

    def test_rule_id_grammar_enforced(self):
        for line, column in (("bad id: => A", 1), ("  9r: => A", 3)):
            with pytest.raises(TheoryParseError, match="bad identifier") as err:
                parse_theory(f">> A\n{line}\n")
            assert (err.value.line, err.value.column) == (2, column)


class TestAtomCodec:
    def test_tagged_cloudiness(self):
        atom = encode_atom(Condition.CLOUDINESS, "g", "North", 1,
                           Value(90 * M))
        assert atom == "CNorth_g_h1_90"

    def test_untagged_wind(self):
        atom = encode_atom(Condition.WIND, None, "Center", 2,
                           Value(6 * M, Compass.N))
        assert atom == "WCenter_h2_N6"

    def test_sea_spelling(self):
        assert encode_atom(Condition.SEA, None, "Sea", 1, Value(65 * M)) == "Sea_h1_65"
        decoded = decode_atom("Sea_h1_65")
        assert (decoded.condition, decoded.source, decoded.location,
                decoded.horizon) == (Condition.SEA, None, "Sea", 1)
        assert decoded.value.magnitude == 65

    def test_decode_untagged(self):
        decoded = decode_atom("CNorth_h1_78")
        assert decoded.condition is Condition.CLOUDINESS
        assert decoded.source is None
        assert decoded.location == "North"
        assert decoded.horizon == 1
        assert decoded.value.magnitude == 78

    def test_fractional_magnitude(self):
        atom = encode_atom(Condition.RAIN, "e", "North", 0, Value(500_000))
        assert atom == "RNorth_e_h0_0p5"
        assert decode_atom(atom).value.magnitude == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["0.123456", "999999999.999999", "100.5", "7"])
    def test_decoded_magnitude_is_exact(self, text):
        atom = "RNorth_h1_" + text.replace(".", "p")
        assert decode_atom(atom).value.magnitude == Fraction(text)

    @pytest.mark.parametrize("atom", [
        "xyzzy", "CNorth", "CNorth_h1", "CNorth_h1_78_9", "C_h1_78",
        "CNorth_h1_078", "CNorth_H1_78", "WNorth_h1_78", "CNorth_h1_N7",
        "Sea_h1_NE5", "Sea78", "CNorth_g_e_h1_78", "CNorth_h1_0p50",
        "CNorth_h367_78",
        pytest.param("CNorth_h" + "9" * 5000 + "_78", id="5000-digit-horizon"),
        pytest.param("CNorth_h1_" + "9" * 5000, id="5000-digit-magnitude"),
        "CNorth_h1_1000000000", "CNorth_h1_0p0000001",
    ])
    def test_opaque_atoms(self, atom):
        with pytest.raises(OpaqueAtomError):
            decode_atom(atom)

    def test_sea_requires_sea_location(self):
        from fusecast.errors import ForecastError

        with pytest.raises(ForecastError):
            encode_atom(Condition.SEA, None, "North", 1, Value(65 * M))

    def test_negative_horizon_not_encodable(self):
        from fusecast.errors import ForecastError

        with pytest.raises(ForecastError):
            encode_atom(Condition.RAIN, None, "North", -1, Value(5 * M))

    def test_horizons_stop_at_366(self):
        from fusecast.errors import ForecastError

        atom = encode_atom(Condition.RAIN, None, "North", 366,
                           Value(999_999_999_999_999))
        assert atom == "RNorth_h366_999999999p999999"
        assert decode_atom(atom).horizon == 366
        with pytest.raises(ForecastError):
            encode_atom(Condition.RAIN, None, "North", 367, Value(5 * M))

    def test_method_tag_lowering(self):
        atom = encode_atom(Condition.RAIN, "ECMWF", "North", 1, Value(5 * M))
        assert atom == "RNorth_ecmwf_h1_5"
        assert decode_atom(atom).source == "ecmwf"

    def test_horizon_shaped_method_rejected(self):
        from fusecast.errors import ForecastError

        with pytest.raises(ForecastError):
            encode_atom(Condition.RAIN, "H1", "North", 1, Value(5 * M))


_conds = st.sampled_from(list(Condition))
_locs = st.sampled_from(["North", "Center", "South", "Sea", "East", "West"])
_mags = st.one_of(  # millionths
    st.integers(0, 100).map(lambda n: n * M),
    st.integers(0, 400).map(lambda n: n * M // 4),
)


@st.composite
def codec_tuples(draw):
    condition = draw(_conds)
    location = "Sea" if condition is Condition.SEA else draw(_locs)
    source = draw(st.sampled_from([None, "g", "e", "ecmwf", "icon2"]))
    horizon = draw(st.integers(0, 9))
    direction = draw(st.sampled_from(list(Compass))) if condition is Condition.WIND else None
    value = check_value(condition, Value(draw(_mags), direction))
    return condition, source, location, horizon, value


@given(codec_tuples())
def test_codec_round_trip(t):
    condition, source, location, horizon, value = t
    atom = encode_atom(condition, source, location, horizon, value)
    decoded = decode_atom(atom)
    assert (decoded.condition, decoded.source, decoded.location,
            decoded.horizon, decoded.value) == (condition, source, location,
                                                horizon, value)


@given(codec_tuples(), codec_tuples())
def test_codec_injective(t1, t2):
    a1 = encode_atom(*t1)
    a2 = encode_atom(*t2)
    assert (a1 == a2) == (t1 == t2)


# The codec's accept/reject set, pinned against a liberal reading of the
# string: split it into the grammar's pieces, build the fields through the
# input boundary's own checks, and let encode_atom decide canonicity.
_CODES = {code: cond for cond, code in CONDITION_CODES.items() if cond is not Condition.SEA}
_ASCII_DIGITS = set("0123456789")


def _liberal_fields(s: str):
    """The fields s spells, or None when its pieces do not make valid fields."""
    if s.startswith("Sea"):
        condition, location, rest = Condition.SEA, "Sea", s[3:]
    else:
        code = "Sn" if s.startswith("Sn") else s[:1]
        if code not in _CODES:
            return None
        condition = _CODES[code]
        location, sep, tail = s[len(code):].partition("_")
        rest = sep + tail
    parts = rest.split("_")
    if parts[0] or len(parts) not in (3, 4):
        return None
    source = parts[1] if len(parts) == 4 else None
    hseg, vseg = parts[-2], parts[-1]
    direction = None
    if condition is Condition.WIND:
        for d in sorted(Compass, key=lambda d: -len(d.value)):
            if vseg.startswith(d.value):
                direction, vseg = d, vseg[len(d.value):]
                break
    whole, _, places = vseg.partition("p")
    if not (whole and set(whole + places) <= _ASCII_DIGITS and vseg.count("p") <= 1
            and (places or not vseg.endswith("p"))):
        return None
    try:
        horizon = parse_horizon(hseg)
        micros = exact_number(Decimal(vseg.replace("p", ".")), "magnitude")
        value = check_value(condition, Value(micros, direction))
    except ForecastError:
        return None
    return condition, source, location, horizon, value


def _decodes_iff_canonical(s: str) -> None:
    fields = _liberal_fields(s)
    try:
        canonical = fields is not None and encode_atom(*fields) == s
    except ForecastError:
        canonical = False
    try:
        decoded = decode_atom(s)
    except OpaqueAtomError:
        assert not canonical, s
        return
    assert canonical, s
    assert (decoded.condition, decoded.source, decoded.location,
            decoded.horizon, decoded.value) == fields


_atom_pieces = st.tuples(
    st.sampled_from(["C", "W", "R", "T", "P", "H", "V", "Sn", "Sea", "S", "Se", "X", "c", ""]),
    st.sampled_from(["North", "N", "Sea", "a1", "Zz9", "1a", "", "X_", "Nö"]),
    st.sampled_from([None, "g", "ecmwf", "xr0", "h", "hx", "h1", "h01", "h367", "G", "1a", ""]),
    st.sampled_from(["h0", "h1", "h9", "h00", "h01", "h365", "h366", "h367", "h999",
                     "h1000", "H1", "h", "h-1", "h\u0663", "1"]),
    st.sampled_from(["", "N", "NE", "E", "SE", "S", "SW", "W", "NW", "NN", "X", "n"]),
    st.sampled_from(["0", "5", "05", "00", "78", "100", "101", "100p5", "0p5", "0p50",
                     "0p", "p5", "1p", "0p000001", "0p0000001", "1p123456", "1p1234567",
                     "999999999", "1000000000", "999999999p999999", "0999999999",
                     "1p2p3", "1.5", "1e3", "\u0663", ""]),
)


@st.composite
def atom_strings(draw):
    """Strings built from pieces of the atom grammar, right and wrong."""
    head, location, source, horizon, direction, magnitude = draw(_atom_pieces)
    if head == "Sea" and draw(st.booleans()):
        location = ""
    parts = [head + location] + ([source] if source is not None else [])
    return "_".join(parts + [horizon, direction + magnitude])


_EDIT_CHARS = st.sampled_from("CWSRTPHVNEnorth0123456789_phx.-")


@st.composite
def edited_atoms(draw):
    """An encoded atom with one character inserted, deleted or replaced."""
    condition = draw(_conds)
    location = "Sea" if condition is Condition.SEA else draw(_locs)
    source = draw(st.sampled_from([None, "g", "ecmwf", "xr3"]))
    places = draw(st.integers(0, 6))
    micros = draw(st.integers(0, 10**9 * 10**places - 1)) * 10**(6 - places)
    if condition.is_percent:
        micros = min(micros, 100 * M)
    direction = draw(st.sampled_from(list(Compass))) if condition is Condition.WIND else None
    value = check_value(condition, Value(micros, direction))
    atom = encode_atom(condition, source, location, draw(st.integers(0, 366)), value)
    i = draw(st.integers(0, len(atom)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    c = draw(_EDIT_CHARS)
    if edit == "insert":
        return atom[:i] + c + atom[i:]
    if edit == "delete":
        return atom[:i] + atom[i + 1:]
    return atom[:i] + c + atom[i + 1:]


@settings(max_examples=300)
@given(st.one_of(atom_strings(), edited_atoms()))
def test_decode_accepts_exactly_the_encoded_strings(s):
    _decodes_iff_canonical(s)


@pytest.mark.parametrize("atom, accepted", [
    ("RNorth_h366_5", True), ("RNorth_h367_5", False),
    ("RNorth_h1_999999999", True), ("RNorth_h1_1000000000", False),
    ("RNorth_h1_0p123456", True), ("RNorth_h1_0p1234567", False),
    ("CNorth_h1_100", True), ("CNorth_h1_100p5", False), ("RNorth_h1_100p5", True),
    ("RNorth_h1_h1_5", False), ("RNorth_h01_h1_5", False), ("RNorth_hx_h1_5", True),
    ("WNorth_h1_5", False), ("WNorth_h1_NE5", True), ("RNorth_h1_NE5", False),
    ("Sea_xr0_h0_65", True), ("SnNorth_h1_0p5", True), ("SNorth_h1_5", False),
])
def test_codec_boundaries(atom, accepted):
    _decodes_iff_canonical(atom)
    try:
        decode_atom(atom)
    except OpaqueAtomError:
        assert not accepted
    else:
        assert accepted


class TestTheoryFormat:
    def test_two_rules_and_superiority(self):
        t = parse_theory("r1: => A\nr2: => -A\nr1 > r2\n")
        assert len(t.rules) == 2
        assert all(r.kind is RuleKind.DEFEASIBLE for r in t.rules)
        assert t.superiority == (("r1", "r2"),)

    def test_two_body_rule_from_the_seaside_theory(self):
        t = parse_theory(
            "r_fcg21: => CNorth_g_h1_90\n"
            "r_fce21: => CNorth_e_h1_75\n"
            "r_ce11: CNorth_g_h1_90, CNorth_e_h1_75 => CNorth_h1_78\n"
        )
        rule = {r.id: r for r in t.rules}["r_ce11"]
        assert rule.kind is RuleKind.DEFEASIBLE
        assert [str(b) for b in rule.body] == ["CNorth_g_h1_90", "CNorth_e_h1_75"]
        assert str(rule.head) == "CNorth_h1_78"

    def test_facts_strict_and_defeater_arrows(self):
        t = parse_theory(
            ">> F\n"
            "s1: F -> B\n"
            "d1: B ~> -C\n"
        )
        assert t.facts == (Literal("F"),)
        rules = {r.id: r for r in t.rules}
        assert rules["s1"].kind is RuleKind.STRICT
        assert rules["d1"].kind is RuleKind.DEFEATER

    def test_comments_and_blank_lines(self):
        t = parse_theory("% header\n\nr1: => A  % trailing\n")
        assert len(t.rules) == 1

    def test_undefined_superiority_reference(self):
        with pytest.raises(TheoryError):
            parse_theory("r1: => A\nr1 > rX\n")

    def test_duplicate_rule_id(self):
        with pytest.raises(TheoryError):
            parse_theory("r1: => A\nr1: => B\n")

    def test_non_complementary_superiority(self):
        with pytest.raises(TheoryError):
            parse_theory("r1: => A\nr2: => B\nr1 > r2\n")

    def test_superiority_cycle(self):
        with pytest.raises(TheoryError):
            parse_theory("r1: => A\nr2: => -A\nr1 > r2\nr2 > r1\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(TheoryParseError) as err:
            parse_theory("r1: => A\n???\n")
        assert err.value.line == 2

    def test_rule_missing_arrow(self):
        with pytest.raises(TheoryParseError):
            parse_theory("r1: A, B\n")

    @pytest.mark.parametrize("rule, column", [
        pytest.param("r1: a,,b => c", 7, id="r1: a,,b => c"),
        pytest.param("r1: , => c", 4, id="r1: , => c"),
        pytest.param("r1: a, => c", 7, id="r1: a, => c"),
    ])
    def test_empty_body_item(self, rule, column):
        """A blank item is reported where it starts, just after its comma or colon."""
        with pytest.raises(TheoryParseError) as err:
            parse_theory(f">> a\n{rule}\n")
        assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize("text, line, column", [
        ("r1: 1 => a", 1, 5),
        ("a9: b => 9", 1, 10),
        ("x: a9, 9 => c", 1, 8),
        ("r9 > 9", 1, 6),
        ("r1: => a\nr1 > 1", 2, 6),
        ("r1: a =>", 1, 9),
        (">>  ", 1, 3),
        ("x >   ", 1, 4),
        ("\xa0: => a", 1, 1),
    ])
    def test_error_column_is_the_offending_part_not_an_earlier_copy(self, text, line, column):
        with pytest.raises(TheoryParseError) as err:
            parse_theory(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_error_line_counts_canonical_and_comment_lines(self):
        """Lines read by the canonical pattern and "%" lines still count."""
        text = ">> a\nr1: a => b\n% note\n\nr2: a, -b -> -c\nr1 > r2\nr3: a,,b => c\n"
        with pytest.raises(TheoryParseError) as err:
            parse_theory(text)
        assert (err.value.line, err.value.column) == (7, 7)
        assert _outcome(parse_theory, text) == _outcome(reference_reader.parse_theory, text)

    def test_free_spacing_reads_as_the_canonical_theory(self, rain_reference_theory):
        spaced = (FIXTURES / "rain" / "spaced_theory.dfl").read_text()
        assert "\t" in spaced and "- " in spaced
        assert parse_theory(spaced) == rain_reference_theory

    def test_serialize_orders_rules_by_id(self):
        t = DefeasibleTheory(rules=(
            Rule("r2", RuleKind.DEFEASIBLE, (), Literal("B")),
            Rule("r1", RuleKind.DEFEASIBLE, (), Literal("A")),
        ))
        text = serialize_theory(t)
        assert text.index("r1:") < text.index("r2:")


class TestValidation:
    def test_superiority_over_complementary_heads_only(self):
        rules = (
            Rule("r1", RuleKind.DEFEASIBLE, (), Literal("A")),
            Rule("r2", RuleKind.DEFEASIBLE, (), Literal("-A")),
        )
        validate_theory(DefeasibleTheory((), rules, (("r1", "r2"),)))
        with pytest.raises(TheoryError):
            validate_theory(DefeasibleTheory((), rules, (("r1", "r1"),)))

    def test_superiority_chain_of_1500_rules(self):
        rules = tuple(Rule(f"r{i}", RuleKind.DEFEASIBLE, (), Literal("-A" if i % 2 else "A"))
                      for i in range(1500))
        chain = tuple((f"r{i}", f"r{i + 1}") for i in range(1499))
        validate_theory(DefeasibleTheory((), rules, chain))
        with pytest.raises(TheoryError, match="cycle"):
            validate_theory(DefeasibleTheory((), rules, chain + (("r1499", "r0"),)))


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_parse_serialize_round_trip(seed):
    theory = random_theory(random.Random(seed))
    assert parse_theory(serialize_theory(theory)) == theory


# ---------------------------------------------------------------------------
# Both readers against the reference reader kept in tests/reference_reader.py
# ---------------------------------------------------------------------------

_IDS = st.sampled_from(["r1", "r2", "a", "B_2", "x9", "CNorth_h1_78"])
_BLANK = st.text(alphabet=" \t\xa0\n", max_size=2)
_TOKENS = st.one_of(_IDS, _BLANK, st.sampled_from(
    ["-", ",", ":", ">", ">>", "->", "=>", "~>", "%", "9", "\u00e9", "=", "~", "\n"]))
_SOUP = st.lists(_TOKENS, max_size=8).map("".join)


@st.composite
def _literal_text(draw):
    """A literal with random spacing; now and then its atom is missing."""
    sign = draw(st.sampled_from(["", "-"]))
    atom = draw(st.one_of(_IDS, st.just(""))) if draw(st.booleans()) else draw(_IDS)
    return draw(_BLANK) + sign + draw(_BLANK) + atom + draw(_BLANK)


_CANONICAL_LITERAL = st.builds(lambda atom, positive: Literal(atom if positive else "-" + atom),
                               _IDS, st.booleans())
#: A line exactly as serialize_theory writes it.
_CANONICAL_LINE = st.one_of(
    _CANONICAL_LITERAL.map(">> {}".format),
    st.builds(Rule, _IDS, st.sampled_from(RuleKind),
              st.lists(_CANONICAL_LITERAL, max_size=3).map(tuple), _CANONICAL_LITERAL).map(str),
    st.lists(_IDS, min_size=2, max_size=2).map(" > ".join),
)


@st.composite
def _theory_line(draw):
    """A fact, rule or superiority line in the canonical spelling or with
    random spacing, or a token soup; all but half the canonical lines may
    carry one stray token and a trailing comment."""
    shape = draw(st.sampled_from(["canonical", "fact", "rule", "sup", "soup"]))
    if shape == "canonical":
        line = draw(_CANONICAL_LINE)
        if draw(st.booleans()):
            return line
    elif shape == "fact":
        line = draw(_BLANK) + ">>" + draw(_literal_text())
    elif shape == "rule":
        body = ",".join(draw(st.lists(_literal_text(), max_size=3)))
        arrow = draw(st.sampled_from(["->", "=>", "~>"]))
        line = draw(_BLANK) + draw(_IDS) + draw(_BLANK) + ":" + body + arrow \
            + draw(_literal_text())
    elif shape == "sup":
        line = draw(_BLANK) + draw(_IDS) + draw(_BLANK) + ">" + draw(_BLANK) + draw(_IDS)
    else:
        line = draw(_SOUP)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(_TOKENS) + line[at:]
    if draw(st.booleans()):
        line += draw(_BLANK) + "%" + draw(_SOUP)
    return line


def _outcome(read, text):
    """What a reader returns, or its error's type, line, column and message."""
    try:
        return read(text)
    except TheoryError as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None), str(exc)


@settings(max_examples=400)
@given(st.lists(_theory_line(), min_size=1, max_size=4))
def test_parse_theory_matches_the_reference_reader(lines):
    """The whole text, then each line alone: a line alone cannot clash with
    another line's rule id, so far more of them read as a theory."""
    for text in ["\n".join(lines), *lines]:
        got = _outcome(parse_theory, text)
        assert got == _outcome(reference_reader.parse_theory, text)
        if isinstance(got, DefeasibleTheory):
            literals = [*got.facts, *(lit for r in got.rules for lit in (*r.body, r.head))]
            assert all(type(lit) is Literal for lit in literals)


def _check_against_per_item_reference(items):
    """conclusions_from_json reads a list as the reference reads each item."""
    for item in items:
        assert _outcome(parse_literal, item) == _outcome(reference_reader.parse_literal, item)
    try:
        expected = frozenset(reference_reader.parse_literal(s) for s in items)
    except TheoryError as exc:
        expected = str(SchemaError("+d", f"bad literal: {exc}"))
    try:
        got = conclusions_from_json(json.dumps({"+d": items}).encode()).plus_defeasible
        assert all(type(lit) is Literal for lit in got)
    except SchemaError as exc:
        got = str(exc)
    assert got == expected


@settings(max_examples=300)
@given(st.lists(st.one_of(_literal_text(), _SOUP), max_size=4))
def test_conclusions_from_json_matches_per_item_reference_literals(items):
    _check_against_per_item_reference(items)


@pytest.mark.parametrize("items", [
    ["a", ""], ["", "a"], ["a\nb"], ["a", "a"], [" -a"], [],
], ids=repr)
def test_list_check_neither_merges_nor_hides_items(items):
    """An empty item, or one that holds the separator, is not read as part
    of a canonical list."""
    _check_against_per_item_reference(items)


# ---------------------------------------------------------------------------
# The canonical spelling is read without the per-token reader
# ---------------------------------------------------------------------------

def _refuse(*args):
    raise AssertionError("the per-token reader ran on a canonical line")


@pytest.mark.parametrize("source", ["seaside", *range(8)],
                         ids=lambda s: s if s == "seaside" else f"random-{s}")
def test_canonical_theory_text_takes_one_match_per_line(source, monkeypatch):
    if source == "seaside":
        theory = parse_theory((FIXTURES / "golden" / "seaside_theory.dfl").read_text())
    else:
        theory = random_theory(random.Random(source))
    monkeypatch.setattr(theory_module, "_read_literal", _refuse)
    monkeypatch.setattr(theory_module, "_read_id", _refuse)
    assert parse_theory(serialize_theory(theory)) == theory


def test_canonical_conclusions_take_one_match_per_list(monkeypatch):
    data = (FIXTURES / "golden" / "seaside_conclusions.json").read_bytes()
    expected = conclusions_from_json(data)
    monkeypatch.setattr(reasoner, "parse_literal", _refuse)
    got = conclusions_from_json(data)
    assert got == expected and got.plus_defeasible
    assert all(type(lit) is Literal for lit in got.plus_defeasible)
