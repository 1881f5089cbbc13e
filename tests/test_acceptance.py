"""Acceptance suite: one test per criterion, reported in the terminal summary.

Criteria, in order:
  1. seaside reference theory reproduces its reference conclusions exactly;
  2. rain reference theory reproduces its reference conclusions exactly;
  3. tournament emits the expected structure and the pipeline selects the
     more accurate model's candidate on every contested slot;
  4. the six lexicon anchor classifications match verbatim;
  5. the day-1 bulletin carries the four reference table lines;
  6. the property suites (coherence, differential, round-trips, supremacy
     laws, determinism) pass within the CI time budget.
"""

import functools
import random
import time
from fractions import Fraction

from fusecast.bulletin import extract_scenario, render_document, render_sharp
from fusecast.errors import OpaqueAtomError
from fusecast.lexicon import classify
from fusecast.model import Compass, Condition, make_value
from fusecast.reasoner import conclusions, oracle_conclusions
from fusecast.theory import Literal, decode_atom, encode_atom, parse_theory, serialize_theory
from fusecast.tournament import Bias, build_theory, supremacy

from conftest import record_criterion
from genutil import codec_seed_tuple, random_theory, random_two_model_inputs

_timings: dict[str, float] = {}


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                record_criterion(name, False)
                raise
            _timings[name] = time.perf_counter() - start
            record_criterion(name, True, detail or "")
        return run
    return wrap


def untagged(cs, min_horizon=1, positive_only=False):
    out = set()
    for lit in cs.plus_defeasible:
        if positive_only and not lit.positive:
            continue
        try:
            decoded = decode_atom(lit.atom)
        except OpaqueAtomError:
            continue
        if decoded.source is None and decoded.horizon >= min_horizon:
            out.add(str(lit))
    return out


@criterion("1. seaside reasoner conformance")
def test_criterion_1_seaside_reasoner(seaside_reference_theory):
    start = time.perf_counter()
    cs = conclusions(seaside_reference_theory)
    elapsed = time.perf_counter() - start

    expected_14 = {
        "CNorth_h1_78", "CCenter_h1_78", "CSouth_h1_78",
        "WNorth_h1_NE6", "WCenter_h1_NE6", "WSouth_h1_N5", "Sea_h1_65",
        "CNorth_h2_38", "CCenter_h2_38", "CSouth_h2_38",
        "WNorth_h2_N6", "WCenter_h2_N6", "WSouth_h2_N5", "Sea_h2_20",
    }
    assert untagged(cs, min_horizon=1, positive_only=True) == expected_14

    expected_facts = {
        "CNorth_h0_90", "CCenter_h0_90", "CSouth_h0_90",
        "WNorth_h0_NE15", "WCenter_h0_NE15", "WSouth_h0_NE15",
        "Sea_o_h0_190",
    }
    assert {str(l) for l in cs.plus_definite} == expected_facts
    assert cs.undetermined == frozenset()

    # SPINdle listing spot checks.
    assert Literal("CNorth_h0_90") in cs.plus_definite
    assert Literal("CCenter_h1_78") in cs.plus_defeasible
    assert Literal("CCenter_h1_88", False) in cs.plus_defeasible
    assert Literal("CCenter_h1_88") in cs.minus_defeasible
    assert Literal("CCenter_h1_78", False) in cs.minus_defeasible
    assert Literal("Sea_h1_65") in cs.plus_defeasible
    assert Literal("Sea_h1_95") in cs.minus_defeasible

    assert elapsed < 1.0
    return f"14+7 conclusions, reasoning {elapsed * 1000:.1f} ms"


@criterion("2. rain reasoner conformance")
def test_criterion_2_rain_reasoner(rain_reference_theory):
    start = time.perf_counter()
    cs = conclusions(rain_reference_theory)
    elapsed = time.perf_counter() - start

    expected_16 = set()
    for loc in ("North", "East", "South", "West"):
        expected_16 |= {f"R{loc}_h1_21", f"-R{loc}_h1_7",
                        f"R{loc}_h2_14", f"-R{loc}_h2_8"}
    assert untagged(cs, min_horizon=1) == expected_16
    assert cs.undetermined == frozenset()

    assert Literal("RNorth_h1_21") in cs.plus_defeasible
    assert Literal("RNorth_h1_7") in cs.minus_defeasible
    assert Literal("RNorth_h1_7", False) in cs.plus_defeasible

    assert elapsed < 1.0
    return f"16 conclusions, reasoning {elapsed * 1000:.1f} ms"


@criterion("3. tournament structural conformance")
def test_criterion_3_tournament_structure(seaside_theory, seaside_kb):
    theory = seaside_theory
    by_slot = {}
    for rule in theory.rules:
        if rule.id.startswith(("sr_", "vc_")):
            d = decode_atom(rule.head.atom if rule.id.startswith("sr_")
                            else rule.body[0].atom)
            slot = (d.condition, d.location, d.horizon)
            by_slot.setdefault(slot, {"sr": [], "vc": []})[rule.id[:2]].append(rule)
    assert len(by_slot) == 14
    assert sum(1 for s in by_slot if s[2] == 1) == 7
    assert sum(1 for s in by_slot if s[2] == 2) == 7

    acc = {1: (850_000, 450_000), 2: (800_000, 400_000)}  # millionths
    sup_pairs = set(theory.superiority)
    expected_winners = {}
    for (condition, location, horizon), rules in by_slot.items():
        assert len(rules["sr"]) == 2 and len(rules["vc"]) == 2
        a_e, a_g = acc[horizon]
        body_first, body_second = rules["sr"][0].body
        assert rules["sr"][1].body == rules["sr"][0].body
        assert decode_atom(body_first.atom).source == "ecmwf"
        assert decode_atom(body_second.atom).source == "gfs"
        v_e = decode_atom(body_first.atom).value
        v_g = decode_atom(body_second.atom).value
        e_head = encode_atom(condition, None, location, horizon,
                             supremacy(v_e, v_g, a_e, a_g, Bias.FIRST))
        g_head = encode_atom(condition, None, location, horizon,
                             supremacy(v_e, v_g, a_e, a_g, Bias.SECOND))
        # both priorities oriented toward the more accurate model's candidate
        assert (f"vc_{e_head}", f"sr_{g_head}") in sup_pairs
        assert (f"sr_{e_head}", f"vc_{g_head}") in sup_pairs
        expected_winners[(condition, location, horizon)] = decode_atom(e_head).value

    # winning wind directions: NE/NE/N tomorrow, N/N/N after
    wind = {(loc, h): expected_winners[(Condition.WIND, loc, h)].direction
            for loc in ("North", "Center", "South") for h in (1, 2)}
    assert wind == {
        ("North", 1): Compass.NE, ("Center", 1): Compass.NE, ("South", 1): Compass.N,
        ("North", 2): Compass.N, ("Center", 2): Compass.N, ("South", 2): Compass.N,
    }

    # end to end, the scenario must pick exactly those candidates
    scenario = extract_scenario(conclusions(theory))
    for (condition, location, horizon), value in expected_winners.items():
        [entry] = [e for e in scenario.entries
                   if (e.condition, e.location, e.horizon) == (condition, location, horizon)]
        assert entry.value == value
    return "14 slots x (2 sr + 2 vc + 2 priorities), all toward ECMWF"


@criterion("4. lexicon anchors")
def test_criterion_4_lexicon_anchors():
    assert classify(Condition.CLOUDINESS,
                    make_value(Condition.CLOUDINESS, 78)) == "Mostly Cloudy"
    assert classify(Condition.CLOUDINESS,
                    make_value(Condition.CLOUDINESS, 38)) == "Partly Cloudy"
    assert classify(Condition.WIND,
                    make_value(Condition.WIND, 5, Compass.N)) == "Light Winds"
    assert classify(Condition.WIND,
                    make_value(Condition.WIND, 6, Compass.NE)) == "Light Winds"
    assert classify(Condition.SEA, make_value(Condition.SEA, 65)) == "Slight"
    assert classify(Condition.SEA, make_value(Condition.SEA, 20)) == "Calm"
    assert classify(Condition.RAIN, make_value(Condition.RAIN, 21)) == "Heavy Rains"
    return "6 anchors verbatim"


@criterion("5. day-1 bulletin lines")
def test_criterion_5_bulletin_text(seaside_theory):
    text = render_document(
        render_sharp(extract_scenario(conclusions(seaside_theory))), "text").decode()
    day1 = text.split("Tomorrow", 1)[1].split("Day after", 1)[0]
    assert "North: Mostly Cloudy, Light Winds from North East." in day1
    assert "Center: Mostly Cloudy, Light Winds from North East." in day1
    assert "South: Mostly Cloudy, Light Winds from North." in day1
    assert "Sea: Slight." in day1
    return "4 reference lines present"


# ---------------------------------------------------------------------------
# Criterion 6: property suites, within the CI time budget
# ---------------------------------------------------------------------------

_budget_clock: dict[str, float] = {}


def _timed_suite(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            _budget_clock[name] = time.perf_counter() - start
            return result
        return run
    return wrap


def _laws(cs):
    assert not cs.plus_defeasible & cs.minus_defeasible
    assert not cs.plus_definite & cs.minus_definite
    assert cs.plus_definite <= cs.plus_defeasible
    assert cs.minus_defeasible <= cs.minus_definite
    for q in cs.plus_defeasible:
        if q.complement() in cs.plus_defeasible:
            assert q in cs.plus_definite and q.complement() in cs.plus_definite


@criterion("6a. reasoner laws + differential, 1000 theories")
@_timed_suite("6a")
def test_criterion_6a_reasoner_corpus():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        theory = random_theory(rng)
        cs = conclusions(theory)
        _laws(cs)
        assert oracle_conclusions(theory) == cs
    return "coherence, superset laws, oracle equality"


@criterion("6b. parser round-trip, 500 theories")
@_timed_suite("6b")
def test_criterion_6b_parser_round_trip():
    rng = random.Random(0xB00C)
    for _ in range(500):
        theory = random_theory(rng)
        assert parse_theory(serialize_theory(theory)) == theory


@criterion("6c. atom codec round-trip, 500 tuples")
@_timed_suite("6c")
def test_criterion_6c_codec_round_trip():
    rng = random.Random(0xA70)
    seen = {}
    for _ in range(500):
        condition, source, location, horizon, value = codec_seed_tuple(rng)
        atom = encode_atom(condition, source, location, horizon, value)
        decoded = decode_atom(atom)
        assert (decoded.condition, decoded.source, decoded.location,
                decoded.horizon, decoded.value) == (
            condition, source, location, horizon, value)
        prior = seen.setdefault(atom, (condition, source, location, horizon, value))
        assert prior == (condition, source, location, horizon, value)  # injective


@criterion("6d. supremacy betweenness + idempotence, 1000 draws")
@_timed_suite("6d")
def test_criterion_6d_supremacy_laws():
    rng = random.Random(0x5EA)
    for _ in range(1000):
        m1 = Fraction(rng.randint(0, 400), rng.choice((1, 2, 4)))
        m2 = Fraction(rng.randint(0, 400), rng.choice((1, 2, 4)))
        a1 = rng.randint(0, 100) * 10_000  # millionths
        a2 = rng.randint(0, 100) * 10_000
        bias = rng.choice((Bias.FIRST, Bias.SECOND))
        v1, v2 = make_value(Condition.SEA, m1), make_value(Condition.SEA, m2)
        got = supremacy(v1, v2, a1, a2, bias)
        assert min(m1, m2) <= got.magnitude <= max(m1, m2)
        if m1 == m2:
            assert got.magnitude == m1


@criterion("6e. tournament determinism under shuffles")
@_timed_suite("6e")
def test_criterion_6e_tournament_determinism(seaside_lams, seaside_kb, now_h0):
    reference = serialize_theory(build_theory(seaside_lams, seaside_kb, now_h0))
    for seed in range(5):
        shuffled = list(seaside_lams)
        random.Random(seed).shuffle(shuffled)
        assert serialize_theory(build_theory(shuffled, seaside_kb, now_h0)) == reference
    rng = random.Random(7)
    for _ in range(10):
        lams, kb = random_two_model_inputs(rng)
        reference = serialize_theory(build_theory(lams, kb, now_h0))
        shuffled = list(lams)
        rng.shuffle(shuffled)
        assert serialize_theory(build_theory(shuffled, kb, now_h0)) == reference


@criterion("6. property-suite time budget")
def test_criterion_6_time_budget():
    total = sum(_budget_clock.values())
    assert set(_budget_clock) == {"6a", "6b", "6c", "6d", "6e"}
    assert total < 30.0
    return f"{total:.1f} s of 30 s"
