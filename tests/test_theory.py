import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.errors import OpaqueAtomError, TheoryError, TheoryParseError
from fusecast.model import Compass, Condition, Value, make_value
from fusecast.theory import (
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    decode_atom,
    encode_atom,
    parse_theory,
    serialize_theory,
    validate_theory,
)

from genutil import random_theory


class TestLiteral:
    def test_complement_involution(self):
        lit = Literal("CNorth_h1_78")
        assert lit.complement().complement() == lit
        assert str(lit.complement()) == "-CNorth_h1_78"

    def test_atom_grammar_enforced(self):
        with pytest.raises(TheoryError):
            Literal("9abc")
        with pytest.raises(TheoryError):
            Literal("a b")


class TestAtomCodec:
    def test_tagged_cloudiness(self):
        atom = encode_atom(Condition.CLOUDINESS, "g", "North", 1,
                           Value(Fraction(90)))
        assert atom == "CNorth_g_h1_90"

    def test_untagged_wind(self):
        atom = encode_atom(Condition.WIND, None, "Center", 2,
                           make_value(Condition.WIND, 6, Compass.N))
        assert atom == "WCenter_h2_N6"

    def test_sea_spelling(self):
        assert encode_atom(Condition.SEA, None, "Sea", 1, Value(Fraction(65))) == "Sea_h1_65"
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
        atom = encode_atom(Condition.RAIN, "e", "North", 0, Value(Fraction(1, 2)))
        assert atom == "RNorth_e_h0_0p5"
        assert decode_atom(atom).value.magnitude == Fraction(1, 2)

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
            encode_atom(Condition.SEA, None, "North", 1, Value(Fraction(65)))

    def test_negative_horizon_not_encodable(self):
        from fusecast.errors import ForecastError

        with pytest.raises(ForecastError):
            encode_atom(Condition.RAIN, None, "North", -1, Value(Fraction(5)))

    def test_horizons_stop_at_366(self):
        from fusecast.errors import ForecastError

        atom = encode_atom(Condition.RAIN, None, "North", 366,
                           Value(Fraction(999999999999999, 10**6)))
        assert atom == "RNorth_h366_999999999p999999"
        assert decode_atom(atom).horizon == 366
        with pytest.raises(ForecastError):
            encode_atom(Condition.RAIN, None, "North", 367, Value(Fraction(5)))

    def test_method_tag_lowering(self):
        atom = encode_atom(Condition.RAIN, "ECMWF", "North", 1, Value(Fraction(5)))
        assert atom == "RNorth_ecmwf_h1_5"
        assert decode_atom(atom).source == "ecmwf"

    def test_horizon_shaped_method_rejected(self):
        from fusecast.errors import ForecastError

        with pytest.raises(ForecastError):
            encode_atom(Condition.RAIN, "H1", "North", 1, Value(Fraction(5)))


_conds = st.sampled_from(list(Condition))
_locs = st.sampled_from(["North", "Center", "South", "Sea", "East", "West"])
_mags = st.one_of(
    st.integers(0, 100).map(Fraction),
    st.integers(0, 400).map(lambda n: Fraction(n, 4)),
)


@st.composite
def codec_tuples(draw):
    condition = draw(_conds)
    location = "Sea" if condition is Condition.SEA else draw(_locs)
    source = draw(st.sampled_from([None, "g", "e", "ecmwf", "icon2"]))
    horizon = draw(st.integers(0, 9))
    direction = draw(st.sampled_from(list(Compass))) if condition is Condition.WIND else None
    value = make_value(condition, draw(_mags), direction)
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
        rule = t.rule("r_ce11")
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
        assert t.rule("s1").kind is RuleKind.STRICT
        assert t.rule("d1").kind is RuleKind.DEFEATER

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
            Rule("r2", RuleKind.DEFEASIBLE, (), Literal("A", False)),
        )
        validate_theory(DefeasibleTheory((), rules, (("r1", "r2"),)))
        with pytest.raises(TheoryError):
            validate_theory(DefeasibleTheory((), rules, (("r1", "r1"),)))

    def test_superiority_chain_of_1500_rules(self):
        rules = tuple(Rule(f"r{i}", RuleKind.DEFEASIBLE, (), Literal("A", i % 2 == 0))
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
