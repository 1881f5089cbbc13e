import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import ForecastError
from fusecast.kb import KnowledgeBase
from fusecast.model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    TimeRef,
    Value,
)
from fusecast.reasoner import conclusions
from fusecast.theory import Literal, decode_atom, serialize_theory
from fusecast.tournament import (
    PrevalenceBasis,
    Winner,
    build_theory,
    prevails,
    sift,
    slot_key,
    supremacy,
)

from genutil import random_two_model_inputs


def H(k):
    return TimeRef(horizon=k)


M = 1_000_000  # one unit in millionths


def lam(method, gen_h, condition, loc, valid_h, magnitude, direction=None):
    return LabeledAssertionalMap(
        Label(method, H(gen_h)),
        AssertionalMap(condition, loc, H(valid_h), Value(magnitude * M, direction)),
    )


@pytest.fixture
def flat_kb():
    return KnowledgeBase({"Alpha": {0: 500_000}, "Beta": {0: 500_000}})


class TestSift:
    def test_seaside_inputs_all_survive(self, seaside_lams, seaside_kb, now_h0):
        assert len(sift(seaside_lams, seaside_kb, now_h0)) == 49

    def test_empty(self, seaside_kb, now_h0):
        assert sift([], seaside_kb, now_h0) == []

    def test_future_labeled_removed(self, flat_kb):
        future = lam("Alpha", 1, Condition.RAIN, "North", 1, 5)
        assert sift([future], flat_kb, H(0)) == []

    def test_future_label_is_dropped_before_its_validity_is_placed(self, flat_kb):
        from datetime import datetime, timezone

        # An absolute validity cannot be placed under a symbolic now, but a
        # future map is dropped before its validity is placed.
        valid = TimeRef(instant=datetime(2026, 8, 9, tzinfo=timezone.utc))
        future = LabeledAssertionalMap(Label("Alpha", H(1)), AssertionalMap(
            Condition.RAIN, "North", valid, Value(5 * M)))
        assert sift([future], flat_kb, H(0)) == []
        with pytest.raises(ForecastError, match="cannot place"):
            sift([future], flat_kb, H(1))

    def test_below_threshold_removed_but_observations_survive(self, flat_kb):
        kb = KnowledgeBase(flat_kb.accuracies, {}, 750_000)
        model = lam("Alpha", 0, Condition.RAIN, "North", 1, 5)
        obs = lam("O", 0, Condition.RAIN, "North", 0, 5)
        assert sift([model, obs], kb, H(0)) == [obs]

    def test_stale_validity_removed(self, seaside_kb):
        from datetime import datetime, timezone

        now = TimeRef(instant=datetime(2026, 8, 8, tzinfo=timezone.utc))
        old = LabeledAssertionalMap(
            Label("GFS", now),
            AssertionalMap(Condition.RAIN, "North",
                           TimeRef(instant=datetime(2026, 8, 6, tzinfo=timezone.utc)),
                           Value(5 * M)))
        assert sift([old], seaside_kb, now) == []

    def test_accuracy_orders_groups(self, seaside_lams, seaside_kb, now_h0):
        ordered = sift(seaside_lams, seaside_kb, now_h0)
        by_slot = {}
        for l in ordered:
            key = (l.map.condition, l.map.location, l.map.valid_at)
            by_slot.setdefault(key, []).append(l.label.method)
        for key, methods in by_slot.items():
            if key[2] == H(0):
                continue  # observations only exist at h0
            assert methods == ["ECMWF", "GFS"]

    def test_exact_accuracy_orders_when_floats_tie(self):
        """Accuracies one millionth apart, the finest a KB can hold, still
        order the pair; no float stands in for them."""
        low, high = 333_333, 333_334
        kb = KnowledgeBase({"Alpha": {1: low}, "Beta": {1: high}})
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

        early = TimeRef(instant=datetime(2026, 8, 8, 6, 0, tzinfo=timezone.utc))
        late = TimeRef(instant=datetime(2026, 8, 8, 12, 0, tzinfo=timezone.utc))
        a = LabeledAssertionalMap(Label("Alpha", early), AssertionalMap(
            Condition.RAIN, "North", H(1), Value(5 * M)))
        b = LabeledAssertionalMap(Label("Beta", late), AssertionalMap(
            Condition.RAIN, "North", H(1), Value(9 * M)))
        verdict = prevails(a, b, flat_kb)
        assert verdict.winner is Winner.SECOND
        assert verdict.basis is PrevalenceBasis.RECENCY

    def test_recency_between_kinds_is_an_error(self, flat_kb):
        from datetime import datetime, timezone

        instant = TimeRef(instant=datetime(2024, 1, 1, tzinfo=timezone.utc))
        a = LabeledAssertionalMap(Label("Alpha", instant), AssertionalMap(
            Condition.RAIN, "North", H(1), Value(5 * M)))
        b = LabeledAssertionalMap(Label("Beta", H(0)), AssertionalMap(
            Condition.RAIN, "North", H(1), Value(9 * M)))
        with pytest.raises(ForecastError, match="cannot place"):
            prevails(a, b, flat_kb)

    def test_override_beats_accuracy(self, seaside_kb):
        kb = KnowledgeBase(seaside_kb.accuracies,
                           {(frozenset(("GFS", "ECMWF")), None, None): "GFS"})
        e = lam("ECMWF", 0, Condition.CLOUDINESS, "North", 1, 75)
        g = lam("GFS", 0, Condition.CLOUDINESS, "North", 1, 90)
        verdict = prevails(e, g, kb)
        assert verdict.winner is Winner.SECOND
        assert verdict.basis is PrevalenceBasis.SPECIFIC


#: Accuracies, as exact Fractions that are whole numbers of millionths.
_MILLIONTHS = st.integers(0, 10**6).map(lambda n: Fraction(n, 10**6))


class TestSupremacy:
    def test_idempotent_on_equal_values(self):
        v = Value(90 * M)
        assert supremacy(v, v, 111_111, 900_000) == v

    def test_spec_worked_example(self):
        # w = max(0.85, 1 - 0.45) = 0.85; round(0.85*50 + 0.15*100) = 58
        got = supremacy(Value(50 * M), Value(100 * M), 850_000, 450_000)
        assert got.magnitude == 58

    def test_biased_result_leans_toward_the_bias(self):
        v90 = Value(90 * M)
        v75 = Value(75 * M)
        first = supremacy(v90, v75, 450_000, 850_000)
        second = supremacy(v75, v90, 850_000, 450_000)
        assert 75 <= second.magnitude <= first.magnitude <= 90
        assert abs(first.magnitude - 90) < abs(second.magnitude - 90)

    def test_wind_direction_copied_from_bias(self):
        g = Value(8 * M, Compass.N)
        e = Value(5 * M, Compass.NE)
        first = supremacy(g, e, 450_000, 850_000)
        second = supremacy(e, g, 850_000, 450_000)
        assert first.direction is Compass.N
        assert second.direction is Compass.NE

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ForecastError):
            supremacy(Value(8 * M, Compass.N),
                      Value(50 * M),
                      500_000, 500_000)

    @given(st.integers(0, 100), st.integers(0, 100),
           st.integers(0, 100), st.integers(0, 100), st.booleans())
    def test_betweenness_and_idempotence(self, m1, m2, a1, a2, swap):
        v1 = Value(m1 * M // 2)
        v2 = Value(m2 * M // 2)
        got = supremacy(v2, v1, a2 * 10_000, a1 * 10_000) if swap else \
            supremacy(v1, v2, a1 * 10_000, a2 * 10_000)
        assert min(v1.magnitude, v2.magnitude) <= got.magnitude <= max(
            v1.magnitude, v2.magnitude)
        if v1 == v2:
            assert got == v1

    @given(st.data(), st.sampled_from([Condition.SEA, Condition.WIND]),
           _MILLIONTHS, _MILLIONTHS, st.booleans())
    def test_matches_the_readme_formula(self, data, condition, a1, a2, swap):
        def draw_value():
            places = data.draw(st.integers(0, 6))
            magnitude = Fraction(data.draw(st.integers(0, 10**(9 + places) - 1)), 10**places)
            direction = data.draw(st.sampled_from(list(Compass))) \
                if condition is Condition.WIND else None
            return Value(int(magnitude * M), direction)

        v1, v2 = draw_value(), draw_value()
        # round(w*v_bias + (1-w)*v_other) half up, w = clamp(max(a_bias,
        # 1 - a_other), 1/2, 1), then clamped into [min(v1, v2), max(v1, v2)];
        # the first argument is the biased side.
        v_bias, v_other, a_bias, a_other = (v2, v1, a2, a1) if swap else (v1, v2, a1, a2)
        w = min(max(a_bias, 1 - a_other, Fraction(1, 2)), Fraction(1))
        blend = w * v_bias.magnitude + (1 - w) * v_other.magnitude
        rounded = Fraction(math.floor(blend + Fraction(1, 2)))
        lo, hi = sorted((v1.magnitude, v2.magnitude))
        expected = Value(int(min(max(rounded, lo), hi) * M), v_bias.direction)
        assert supremacy(v_bias, v_other, a_bias * 10**6, a_other * 10**6) == expected


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

        kb = KnowledgeBase({"Alpha": {0: 800_000}, "Beta": {0: 800_000}})
        early = TimeRef(instant=datetime(2026, 8, 8, 6, 0, tzinfo=timezone.utc))
        late = TimeRef(instant=datetime(2026, 8, 8, 12, 0, tzinfo=timezone.utc))
        now = TimeRef(instant=datetime(2026, 8, 8, 13, 0, tzinfo=timezone.utc))
        a = LabeledAssertionalMap(Label("Alpha", early), AssertionalMap(
            Condition.RAIN, "North", H(1), Value(0)))
        b = LabeledAssertionalMap(Label("Beta", late), AssertionalMap(
            Condition.RAIN, "North", H(1), Value(10 * M)))
        t = build_theory([a, b], kb, now)
        # Beta is later, so its biased head (0.8*10 + 0.2*0 = 8) must win.
        assert set(t.superiority) == {
            ("vc_RNorth_h1_8", "sr_RNorth_h1_2"),
            ("sr_RNorth_h1_8", "vc_RNorth_h1_2"),
        }
        cs = conclusions(t)
        scenario_lits = {str(l) for l in cs.plus_defeasible if l.positive}
        assert "RNorth_h1_8" in scenario_lits

    def test_override_orients_priorities_toward_the_challenger(self, seaside_kb):
        # ECMWF (0.85) leads sift's order; the override lets GFS (0.45) win.
        kb = KnowledgeBase(seaside_kb.accuracies,
                           {(frozenset(("GFS", "ECMWF")), None, None): "GFS"})
        lams = [lam("ECMWF", 0, Condition.CLOUDINESS, "North", 1, 75),
                lam("GFS", 0, Condition.CLOUDINESS, "North", 1, 90)]
        t = build_theory(lams, kb, H(0))
        # Blends: 77 biased toward ECMWF (first), 83 toward GFS (second).
        assert set(t.superiority) == {
            ("vc_CNorth_h1_83", "sr_CNorth_h1_77"),
            ("sr_CNorth_h1_83", "vc_CNorth_h1_77"),
        }
        cs = conclusions(t)
        assert Literal("CNorth_h1_83") in cs.plus_defeasible
        assert Literal("CNorth_h1_77") in cs.minus_defeasible

    def test_challenger_that_wins_carries_its_accuracy_into_the_next_round(self):
        kb = KnowledgeBase({"Alpha": {0: 850_000}, "Beta": {0: 450_000}, "Gamma": {0: 300_000}},
                           {(frozenset(("Beta", "Alpha")), None, None): "Beta"})
        lams = [lam("Alpha", 0, Condition.CLOUDINESS, "North", 1, 75),
                lam("Beta", 0, Condition.CLOUDINESS, "North", 1, 90),
                lam("Gamma", 0, Condition.CLOUDINESS, "North", 1, 10)]
        t = build_theory(lams, kb, H(0))
        # Round 2 blends Beta's 83 at 0.45 with Gamma's 10 at 0.3, so the
        # weights are 1 - 0.3 toward Beta (61.1) and 1 - 0.45 toward Gamma (42.85);
        # with Alpha's 0.85 kept they would be 72.05 and 46.5.
        assert ("sr_CNorth_h1_61", "vc_CNorth_h1_43") in t.superiority
        assert Literal("CNorth_h1_61") in conclusions(t).plus_defeasible

    def test_challenger_that_wins_a_vacuous_round_carries_its_accuracy(self):
        from fusecast.bulletin import extract_scenario

        kb = KnowledgeBase({"A": {1: 600_000}, "B": {1: 400_000}, "C": {1: 400_000}},
                           {(frozenset(("B", "A")), None, None): "B",
                            (frozenset(("C", "B")), None, None): "C"})
        lams = [lam("A", 0, Condition.CLOUDINESS, "North", 1, 10),
                lam("B", 0, Condition.CLOUDINESS, "North", 1, 12),
                lam("C", 0, Condition.CLOUDINESS, "North", 1, 30)]
        t = build_theory(lams, kb, H(0))
        # Round 1 blends to 11 either way, and the override hands it to B.
        # Round 2 weighs B's 11 at 0.4 against C's 30 at 0.4: 0.6 toward
        # each side, so 18.6 and 22.4, and C wins. With A's 0.6 kept, the
        # blend toward C would be 20.5 and A would win with 19.
        assert [r.id for r in t.rules if r.id.startswith(("sr_", "vc_"))] == [
            "sr_CNorth_xr0_h1_11", "sr_CNorth_h1_19", "sr_CNorth_h1_22",
            "vc_CNorth_h1_19", "vc_CNorth_h1_22"]
        assert set(t.superiority) == {("vc_CNorth_h1_22", "sr_CNorth_h1_19"),
                                      ("sr_CNorth_h1_22", "vc_CNorth_h1_19")}
        (entry,) = extract_scenario(conclusions(t)).entries
        assert entry.value == Value(22 * M)

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
            kb = KnowledgeBase({m: {0: rng.randint(0, 100) * 10_000} for m in methods})
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

    def test_one_method_agreeing_across_two_cycles_gives_each_rule_once(self, seaside_kb):
        # Both maps tag their literal with the method alone, so the r_ and pt_
        # rules of the second map repeat those of the first.
        lams = [lam("GFS", 0, Condition.CLOUDINESS, "North", 2, 75),
                lam("GFS", 1, Condition.CLOUDINESS, "North", 2, 75)]
        t = build_theory(lams, seaside_kb, H(1))
        assert [r.id for r in t.rules] == ["r_CNorth_gfs_h1_75", "pt_CNorth_gfs_h1_75"]
        assert (t.facts, t.superiority) == ((), ())

    def test_a_repeated_document_is_fused_once(self, seaside_lams, seaside_kb, now_h0,
                                               seaside_theory):
        # GFS is ECMWF's challenger on every contested slot: a second copy
        # would play a second round against the blend.
        gfs = [l for l in seaside_lams if l.label.method == "GFS"]
        assert build_theory(seaside_lams + gfs, seaside_kb, now_h0) == seaside_theory

    def test_reserved_tag_methods_rejected(self, flat_kb):
        kb = KnowledgeBase({**flat_kb.accuracies, "XR0": {0: 500_000}})
        lams = [lam("XR0", 0, Condition.RAIN, "North", 1, 5)]
        with pytest.raises(ForecastError):
            build_theory(lams, kb, H(0))

    def test_three_source_fold_keeps_one_untagged_winner(self):
        kb = KnowledgeBase({"Alpha": {0: 900_000}, "Beta": {0: 500_000}, "Gamma": {0: 200_000}})
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


def _many_model_inputs(rng):
    """Many methods over few slots, at few accuracies, with acyclic global
    and scoped overrides; generation times are all symbolic under a symbolic
    now, or absolute and symbolic under an absolute one."""
    from datetime import datetime, timedelta, timezone

    methods = [f"M{i}" for i in range(rng.randint(3, 16))]
    kb = KnowledgeBase(
        {m: {h: rng.choice((400_000, 700_000)) for h in range(rng.randint(1, 3))}
         for m in methods},
        {(frozenset((w, l)), c, loc): w
         for c, loc in [(None, None), (Condition.RAIN, None), (None, "North"),
                        (Condition.RAIN, "North")]
         for w, l in [rng.sample(methods, 2) for _ in range(rng.randint(0, 3))]
         if methods.index(w) < methods.index(l)})
    symbolic = rng.random() < 0.5
    start = datetime(2026, 8, 10, 6, 0, tzinfo=timezone.utc)
    now = H(2) if symbolic else TimeRef(instant=start)
    if symbolic:
        generated = [H(k) for k in range(4)]
    else:
        generated = [H(0), H(1)] + [TimeRef(instant=start - timedelta(hours=6 * k))
                                    for k in range(6)]
    valid = {}
    lams = []
    for m in methods:
        label = Label(m, rng.choice(generated))
        for cond, loc, k in rng.sample([(c, loc, k) for c in (Condition.RAIN, Condition.SEA)
                                        for loc in ("North", "Sea") for k in range(1, 5)], 4):
            if (cond is Condition.SEA) != (loc == "Sea"):
                continue
            # Day k - 2 from now: k of a symbolic label h2, else an instant or h(k-2).
            at = valid.setdefault((cond, loc, k), H(k) if symbolic else (
                H(k - 2) if k >= 2 and rng.random() < 0.5
                else TimeRef(instant=start + timedelta(days=k - 2))))
            lams.append(LabeledAssertionalMap(
                label, AssertionalMap(cond, loc, at, Value(rng.randint(0, 3) * M))))
    return lams, kb, now


def test_sift_order_leaves_only_overrides_to_reverse_a_round():
    """prevails' accuracy and recency steps never pick the later of two sift
    survivors of a slot, so the fold may ask only the override."""
    seen = set()
    for seed in range(150):
        lams, kb, now = _many_model_inputs(random.Random(seed))
        slots = {}
        for kept in sift(lams, kb, now):
            slots.setdefault(slot_key(kept, now), []).append(kept)
        for group in slots.values():
            # Every champion of the fold is an earlier survivor than its
            # challenger, so every ordered pair covers every round it plays.
            for i, champion in enumerate(group):
                for challenger in group[i + 1:]:
                    if champion.map.value == challenger.map.value:
                        # A round may still pit it against a blend; values do
                        # not rank, so prevails compares it as another value.
                        challenger = challenger._replace(map=challenger.map._replace(
                            value=Value(challenger.map.value.micros + M)))
                    verdict = prevails(champion, challenger, kb)
                    seen.add((verdict.winner, verdict.basis))
                    if verdict.winner is Winner.SECOND:
                        assert verdict.basis is PrevalenceBasis.SPECIFIC
    assert seen == {(Winner.FIRST, PrevalenceBasis.SPECIFIC),
                    (Winner.SECOND, PrevalenceBasis.SPECIFIC),
                    (Winner.FIRST, PrevalenceBasis.ACCURACY),
                    (Winner.FIRST, PrevalenceBasis.RECENCY),
                    (Winner.TIE, None)}


@pytest.mark.parametrize("alpha, beta, fused", [(20, 90, 41), (90, 20, 69)])
def test_full_tie_goes_to_the_method_id_that_sorts_first(alpha, beta, fused):
    """Equal accuracy at the lead, equal generation time and no override:
    sift's last key, the method id, makes Alpha the champion, so the fold
    leans toward Alpha's value whichever model says what."""
    from fusecast.bulletin import extract_scenario

    kb = KnowledgeBase({"Alpha": {1: 700_000}, "Beta": {1: 700_000}}, min_micros=350_000)
    a = lam("Alpha", 0, Condition.CLOUDINESS, "North", 1, alpha)
    b = lam("Beta", 0, Condition.CLOUDINESS, "North", 1, beta)
    assert prevails(a, b, kb) == (Winner.TIE, None)
    for lams in ([a, b], [b, a]):
        (entry,) = extract_scenario(conclusions(build_theory(lams, kb, H(0)))).entries
        assert entry.value == Value(fused * M)


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
