import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import ForecastError
from fusecast.kb import AccuracyRecord, KnowledgeBase, PriorityOverride
from fusecast.model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    Location,
    TimeRef,
    make_value,
)
from fusecast.reasoner import conclusions
from fusecast.theory import Literal, decode_atom, serialize_theory
from fusecast.tournament import (
    Bias,
    PrevalenceBasis,
    Winner,
    build_theory,
    prevails,
    sift,
    supremacy,
)

from genutil import random_two_model_inputs

H = TimeRef.symbolic


def lam(method, gen_h, condition, loc, valid_h, magnitude, direction=None):
    return LabeledAssertionalMap(
        Label(method, H(gen_h)),
        AssertionalMap(condition, Location(loc), H(valid_h),
                       make_value(condition, magnitude, direction)),
    )


@pytest.fixture
def flat_kb():
    return KnowledgeBase(accuracies=(
        AccuracyRecord("Alpha", 0, Fraction(1, 2)),
        AccuracyRecord("Beta", 0, Fraction(1, 2)),
    ))


class TestSift:
    def test_seaside_inputs_all_survive(self, seaside_lams, seaside_kb, now_h0):
        assert len(sift(seaside_lams, seaside_kb, now_h0)) == 49

    def test_empty(self, seaside_kb, now_h0):
        assert sift([], seaside_kb, now_h0) == []

    def test_future_labeled_removed(self, flat_kb):
        future = lam("Alpha", 1, Condition.RAIN, "North", 1, 5)
        assert sift([future], flat_kb, H(0)) == []

    def test_below_threshold_removed_but_observations_survive(self, flat_kb):
        kb = KnowledgeBase(flat_kb.accuracies, (), Fraction(3, 4))
        model = lam("Alpha", 0, Condition.RAIN, "North", 1, 5)
        obs = lam("O", 0, Condition.RAIN, "North", 0, 5)
        assert sift([model, obs], kb, H(0)) == [obs]

    def test_stale_validity_removed(self, seaside_kb):
        from datetime import datetime, timezone

        now = TimeRef.absolute(datetime(2026, 8, 8, tzinfo=timezone.utc))
        old = LabeledAssertionalMap(
            Label("GFS", now),
            AssertionalMap(Condition.RAIN, Location("North"),
                           TimeRef.absolute(datetime(2026, 8, 6, tzinfo=timezone.utc)),
                           make_value(Condition.RAIN, 5)))
        assert sift([old], seaside_kb, now) == []

    def test_accuracy_orders_groups(self, seaside_lams, seaside_kb, now_h0):
        ordered = sift(seaside_lams, seaside_kb, now_h0)
        by_slot = {}
        for l in ordered:
            key = (l.map.condition, l.map.location.name, l.map.valid_at)
            by_slot.setdefault(key, []).append(l.label.method)
        for key, methods in by_slot.items():
            if key[2] == H(0):
                continue  # observations only exist at h0
            assert methods == ["ECMWF", "GFS"]

    def test_exact_accuracy_orders_when_floats_tie(self):
        """Accuracies one millionth apart, the finest a KB can hold, still
        order the pair; no float stands in for them."""
        low, high = "0.333333", "0.333334"
        kb = KnowledgeBase(accuracies=(AccuracyRecord("Alpha", 1, low),
                                       AccuracyRecord("Beta", 1, high)))
        alpha = lam("Alpha", 0, Condition.RAIN, "North", 1, 5)
        beta = lam("Beta", 0, Condition.RAIN, "North", 1, 7)
        assert sift([alpha, beta], kb, H(0)) == [beta, alpha]
        assert sift([beta, alpha], kb, H(0)) == [beta, alpha]


class TestPrevails:
    def test_accuracy_decides_for_the_seaside_pair(self, seaside_kb):
        e = lam("ECMWF", 0, Condition.CLOUDINESS, "North", 1, 75)
        g = lam("GFS", 0, Condition.CLOUDINESS, "North", 1, 90)
        verdict = prevails(e, g, seaside_kb)
        assert verdict.winner is Winner.FIRST
        assert verdict.basis is PrevalenceBasis.ACCURACY

    def test_requires_a_conflict(self, seaside_kb):
        e = lam("ECMWF", 0, Condition.CLOUDINESS, "North", 1, 75)
        with pytest.raises(ForecastError):
            prevails(e, e, seaside_kb)

    def test_tie_needs_equal_accuracy_and_time(self, flat_kb):
        a = lam("Alpha", 0, Condition.RAIN, "North", 1, 5)
        b = lam("Beta", 0, Condition.RAIN, "North", 1, 9)
        verdict = prevails(a, b, flat_kb)
        assert verdict.winner is Winner.TIE
        assert verdict.basis is None

    def test_recency_breaks_equal_accuracy(self, flat_kb):
        from datetime import datetime, timezone

        early = TimeRef.absolute(datetime(2026, 8, 8, 6, 0, tzinfo=timezone.utc))
        late = TimeRef.absolute(datetime(2026, 8, 8, 12, 0, tzinfo=timezone.utc))
        a = LabeledAssertionalMap(Label("Alpha", early), AssertionalMap(
            Condition.RAIN, Location("North"), H(1), make_value(Condition.RAIN, 5)))
        b = LabeledAssertionalMap(Label("Beta", late), AssertionalMap(
            Condition.RAIN, Location("North"), H(1), make_value(Condition.RAIN, 9)))
        verdict = prevails(a, b, flat_kb)
        assert verdict.winner is Winner.SECOND
        assert verdict.basis is PrevalenceBasis.RECENCY

    def test_override_beats_accuracy(self, seaside_kb):
        kb = KnowledgeBase(seaside_kb.accuracies,
                           (PriorityOverride("GFS", "ECMWF"),))
        e = lam("ECMWF", 0, Condition.CLOUDINESS, "North", 1, 75)
        g = lam("GFS", 0, Condition.CLOUDINESS, "North", 1, 90)
        verdict = prevails(e, g, kb)
        assert verdict.winner is Winner.SECOND
        assert verdict.basis is PrevalenceBasis.SPECIFIC


#: Accuracies, as exact Fractions that are whole numbers of millionths.
_MILLIONTHS = st.integers(0, 10**6).map(lambda n: Fraction(n, 10**6))


class TestSupremacy:
    def test_idempotent_on_equal_values(self):
        v = make_value(Condition.CLOUDINESS, 90)
        assert supremacy(v, v, 111_111, 900_000, Bias.FIRST) == v

    def test_spec_worked_example(self):
        # w = max(0.85, 1 - 0.45) = 0.85; round(0.85*50 + 0.15*100) = 58
        got = supremacy(make_value(Condition.SEA, 100), make_value(Condition.SEA, 50),
                        450_000, 850_000, Bias.SECOND)
        assert got.magnitude == 58

    def test_biased_result_leans_toward_the_bias(self):
        v90 = make_value(Condition.CLOUDINESS, 90)
        v75 = make_value(Condition.CLOUDINESS, 75)
        first = supremacy(v90, v75, 450_000, 850_000, Bias.FIRST)
        second = supremacy(v90, v75, 450_000, 850_000, Bias.SECOND)
        assert 75 <= second.magnitude <= first.magnitude <= 90
        assert abs(first.magnitude - 90) < abs(second.magnitude - 90)

    def test_wind_direction_copied_from_bias(self):
        g = make_value(Condition.WIND, 8, Compass.N)
        e = make_value(Condition.WIND, 5, Compass.NE)
        first = supremacy(g, e, 450_000, 850_000, Bias.FIRST)
        second = supremacy(g, e, 450_000, 850_000, Bias.SECOND)
        assert first.direction is Compass.N
        assert second.direction is Compass.NE

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ForecastError):
            supremacy(make_value(Condition.WIND, 8, Compass.N),
                      make_value(Condition.SEA, 50),
                      500_000, 500_000, Bias.FIRST)

    @given(st.integers(0, 100), st.integers(0, 100),
           st.integers(0, 100), st.integers(0, 100),
           st.sampled_from([Bias.FIRST, Bias.SECOND]))
    def test_betweenness_and_idempotence(self, m1, m2, a1, a2, bias):
        v1 = make_value(Condition.SEA, Fraction(m1, 2))
        v2 = make_value(Condition.SEA, Fraction(m2, 2))
        got = supremacy(v1, v2, a1 * 10_000, a2 * 10_000, bias)
        assert min(v1.magnitude, v2.magnitude) <= got.magnitude <= max(
            v1.magnitude, v2.magnitude)
        if v1 == v2:
            assert got == v1

    @given(st.data(), st.sampled_from([Condition.SEA, Condition.WIND]),
           _MILLIONTHS, _MILLIONTHS,
           st.sampled_from([Bias.FIRST, Bias.SECOND]))
    def test_matches_the_readme_formula(self, data, condition, a1, a2, bias):
        def draw_value():
            places = data.draw(st.integers(0, 6))
            magnitude = Fraction(data.draw(st.integers(0, 10**(9 + places) - 1)), 10**places)
            direction = data.draw(st.sampled_from(list(Compass))) \
                if condition is Condition.WIND else None
            return make_value(condition, magnitude, direction)

        v1, v2 = draw_value(), draw_value()
        # round(w*v_bias + (1-w)*v_other) half up, w = clamp(max(a_bias,
        # 1 - a_other), 1/2, 1), then clamped into [min(v1, v2), max(v1, v2)].
        v_bias, v_other, a_bias, a_other = (
            (v1, v2, a1, a2) if bias is Bias.FIRST else (v2, v1, a2, a1))
        w = min(max(a_bias, 1 - a_other, Fraction(1, 2)), Fraction(1))
        blend = w * v_bias.magnitude + (1 - w) * v_other.magnitude
        rounded = Fraction(math.floor(blend + Fraction(1, 2)))
        lo, hi = sorted((v1.magnitude, v2.magnitude))
        expected = make_value(condition, min(max(rounded, lo), hi), v_bias.direction)
        assert supremacy(v1, v2, a1 * 10**6, a2 * 10**6, bias) == expected


class TestBuildTheory:
    def test_single_model_gets_pass_throughs(self, flat_kb):
        lams = [lam("Alpha", 0, Condition.RAIN, "North", 1, 5)]
        t = build_theory(lams, flat_kb, H(0))
        assert [r.id for r in t.rules] == ["r_RNorth_alpha_h1_5", "pt_RNorth_alpha_h1_5"]
        assert t.superiority == ()
        assert t.facts == ()

    def test_agreeing_models_get_pass_throughs(self, flat_kb):
        lams = [lam("Alpha", 0, Condition.RAIN, "North", 1, 5),
                lam("Beta", 0, Condition.RAIN, "North", 1, 5)]
        t = build_theory(lams, flat_kb, H(0))
        heads = {str(r.head) for r in t.rules if r.id.startswith("pt_")}
        assert heads == {"RNorth_h1_5"}
        assert t.superiority == ()

    def test_observation_suppresses_model_output(self, flat_kb):
        lams = [
            lam("O", 0, Condition.RAIN, "North", 0, 7),
            lam("Alpha", 0, Condition.RAIN, "North", 0, 5),
            lam("Beta", 0, Condition.RAIN, "North", 0, 9),
        ]
        t = build_theory(lams, flat_kb, H(0))
        assert [str(f) for f in t.facts] == ["RNorth_h0_7"]
        assert all(r.id.startswith("r_") for r in t.rules)
        assert t.superiority == ()

    def test_conflict_produces_the_six_piece_block(self, seaside_kb):
        lams = [lam("ECMWF", 0, Condition.CLOUDINESS, "North", 1, 75),
                lam("GFS", 0, Condition.CLOUDINESS, "North", 1, 90)]
        t = build_theory(lams, seaside_kb, H(0))
        sr = sorted(r.id for r in t.rules if r.id.startswith("sr_"))
        vc = sorted(r.id for r in t.rules if r.id.startswith("vc_"))
        assert sr == ["sr_CNorth_h1_77", "sr_CNorth_h1_83"]
        assert vc == ["vc_CNorth_h1_77", "vc_CNorth_h1_83"]
        # priorities oriented toward the more accurate model's candidate
        assert set(t.superiority) == {
            ("vc_CNorth_h1_77", "sr_CNorth_h1_83"),
            ("sr_CNorth_h1_77", "vc_CNorth_h1_83"),
        }

    def test_recency_orients_priorities_at_equal_accuracy(self):
        from datetime import datetime, timezone

        kb = KnowledgeBase(accuracies=(
            AccuracyRecord("Alpha", 0, Fraction(8, 10)),
            AccuracyRecord("Beta", 0, Fraction(8, 10)),
        ))
        early = TimeRef.absolute(datetime(2026, 8, 8, 6, 0, tzinfo=timezone.utc))
        late = TimeRef.absolute(datetime(2026, 8, 8, 12, 0, tzinfo=timezone.utc))
        now = TimeRef.absolute(datetime(2026, 8, 8, 13, 0, tzinfo=timezone.utc))
        a = LabeledAssertionalMap(Label("Alpha", early), AssertionalMap(
            Condition.RAIN, Location("North"), H(1), make_value(Condition.RAIN, 0)))
        b = LabeledAssertionalMap(Label("Beta", late), AssertionalMap(
            Condition.RAIN, Location("North"), H(1), make_value(Condition.RAIN, 10)))
        t = build_theory([a, b], kb, now)
        # Beta is later, so its biased head (0.8*10 + 0.2*0 = 8) must win.
        assert set(t.superiority) == {
            ("vc_RNorth_h1_8", "sr_RNorth_h1_2"),
            ("sr_RNorth_h1_8", "vc_RNorth_h1_2"),
        }
        cs = conclusions(t)
        scenario_lits = {str(l) for l in cs.plus_defeasible if l.positive}
        assert "RNorth_h1_8" in scenario_lits

    def test_equal_accuracy_midpoint_blends_collapse_to_one_rule(self, flat_kb):
        # At accuracy exactly 1/2 both biased blends are the midpoint, so the
        # contest is vacuous: one combined rule, no conflict machinery.
        lams = [lam("Alpha", 0, Condition.RAIN, "North", 1, 0),
                lam("Beta", 0, Condition.RAIN, "North", 1, 10)]
        t = build_theory(lams, flat_kb, H(0))
        sr = [r for r in t.rules if r.id.startswith("sr_")]
        assert [str(r.head) for r in sr] == ["RNorth_h1_5"]
        assert t.superiority == ()
        cs = conclusions(t)
        assert Literal("RNorth_h1_5") in cs.plus_defeasible

    def test_deterministic_under_shuffle(self, seaside_lams, seaside_kb, now_h0):
        text = serialize_theory(build_theory(seaside_lams, seaside_kb, now_h0))
        for seed in range(3):
            shuffled = list(seaside_lams)
            random.Random(seed).shuffle(shuffled)
            assert serialize_theory(build_theory(shuffled, seaside_kb, now_h0)) == text

    def test_emitted_heads_respect_betweenness(self, seaside_theory):
        for rule in seaside_theory.rules:
            if not rule.id.startswith("sr_"):
                continue
            head = decode_atom(rule.head.atom)
            sources = [decode_atom(b.atom) for b in rule.body]
            mags = [s.value.magnitude for s in sources]
            assert min(mags) <= head.value.magnitude <= max(mags)

    @pytest.mark.parametrize("seed", range(8))
    def test_many_source_folds_stay_stratified(self, seed):
        # Folds may revisit blended values; the reserved per-round namespace
        # must keep every slot resolvable with exactly one untagged winner.
        rng = random.Random(seed * 7919)
        for _ in range(40):
            n = rng.randint(3, 6)
            methods = [f"M{i}" for i in range(n)]
            kb = KnowledgeBase(tuple(
                AccuracyRecord(m, 0, Fraction(rng.randint(0, 100), 100))
                for m in methods))
            lams = [
                lam(m, 0, Condition.SEA, "Sea", 1, rng.randint(0, 30))
                for m in methods if rng.random() < 0.9
            ]
            t = build_theory(lams, kb, H(0))
            cs = conclusions(t)
            assert cs.undetermined == frozenset()
            untagged = [l for l in cs.plus_defeasible
                        if l.positive and decode_of(l) is not None
                        and decode_of(l).source is None]
            assert len(untagged) == (1 if lams else 0)

    def test_reserved_tag_methods_rejected(self, flat_kb):
        kb = KnowledgeBase(flat_kb.accuracies + (
            AccuracyRecord("XR0", 0, Fraction(1, 2)),))
        lams = [lam("XR0", 0, Condition.RAIN, "North", 1, 5)]
        with pytest.raises(ForecastError):
            build_theory(lams, kb, H(0))

    def test_three_source_fold_keeps_one_untagged_winner(self):
        kb = KnowledgeBase(accuracies=(
            AccuracyRecord("Alpha", 0, Fraction(9, 10)),
            AccuracyRecord("Beta", 0, Fraction(5, 10)),
            AccuracyRecord("Gamma", 0, Fraction(2, 10)),
        ))
        lams = [
            lam("Alpha", 0, Condition.SEA, "Sea", 1, 100),
            lam("Beta", 0, Condition.SEA, "Sea", 1, 50),
            lam("Gamma", 0, Condition.SEA, "Sea", 1, 200),
        ]
        t = build_theory(lams, kb, H(0))
        cs = conclusions(t)
        untagged = [l for l in cs.plus_defeasible
                    if l.positive and decode_of(l) is not None
                    and decode_of(l).source is None]
        assert len(untagged) == 1
        assert cs.undetermined == frozenset()


def decode_of(literal):
    from fusecast.errors import OpaqueAtomError

    try:
        return decode_atom(literal.atom)
    except OpaqueAtomError:
        return None


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(40))
    def test_winner_head_is_the_provable_one(self, seed):
        lams, kb = random_two_model_inputs(random.Random(seed))
        now = H(0)
        t = build_theory(lams, kb, now)
        cs = conclusions(t)
        assert cs.undetermined == frozenset()
        rules = {r.id: r for r in t.rules}
        # For every superiority pair of the shape (sr_w, vc_l), the winner's
        # head is defeasibly provable and the loser's head is refuted.
        for winner_id, loser_id in t.superiority:
            if not winner_id.startswith("sr_"):
                continue
            winner_head = rules[winner_id].head
            loser_head = rules[loser_id].body[0]
            assert winner_head in cs.plus_defeasible
            assert loser_head in cs.minus_defeasible

    @pytest.mark.parametrize("seed", range(20))
    def test_every_covered_slot_reaches_the_scenario(self, seed):
        from fusecast.bulletin import extract_scenario
        from fusecast.tournament import slot_key

        from fusecast.tournament import _CONDITION_ORDER

        lams, kb = random_two_model_inputs(random.Random(seed + 1000))
        now = H(0)
        sifted = sift(lams, kb, now)
        t = build_theory(sifted, kb, now)
        scenario = extract_scenario(conclusions(t))
        covered = {slot_key(l, now) for l in sifted}
        got = {(_CONDITION_ORDER[e.condition], e.location, e.horizon)
               for e in scenario.entries}
        assert got == covered
