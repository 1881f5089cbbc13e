import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import SchemaError, UnknownMethodError
from fusecast.kb import (
    AccuracyRecord,
    KnowledgeBase,
    PriorityOverride,
    accuracy_of,
    load_kb,
    override_winner,
)
from fusecast.model import Condition


@pytest.fixture
def paper_kb():
    return KnowledgeBase(accuracies=(
        AccuracyRecord("ECMWF", 1, Fraction(85, 100)),
        AccuracyRecord("ECMWF", 2, Fraction(80, 100)),
        AccuracyRecord("GFS", 1, Fraction(45, 100)),
        AccuracyRecord("GFS", 2, Fraction(40, 100)),
    ))


class TestAccuracyOf:
    def test_exact_lookup(self, paper_kb):
        assert accuracy_of(paper_kb, "ECMWF", 1) == 850_000
        assert accuracy_of(paper_kb, "GFS", 2) == 400_000

    def test_observation_axiom(self, paper_kb):
        assert accuracy_of(paper_kb, "O", 7) == 1_000_000

    def test_fallback_to_nearest_smaller_horizon(self, paper_kb):
        assert accuracy_of(paper_kb, "ECMWF", 5) == 800_000

    def test_fallback_to_smallest_recorded_when_no_smaller(self, paper_kb):
        assert accuracy_of(paper_kb, "ECMWF", 0) == 850_000

    def test_unknown_method(self, paper_kb):
        with pytest.raises(UnknownMethodError):
            accuracy_of(paper_kb, "ICON", 1)


class TestOverrideWinner:
    def test_no_overrides(self, paper_kb):
        assert override_winner(paper_kb, "GFS", "ECMWF") is None

    def test_global_override(self, paper_kb):
        kb = KnowledgeBase(paper_kb.accuracies,
                           (PriorityOverride("ECMWF", "GFS"),))
        assert override_winner(kb, "GFS", "ECMWF") == "ECMWF"
        assert override_winner(kb, "ECMWF", "GFS") == "ECMWF"  # antisymmetric

    def test_scoped_override_beats_global(self, paper_kb):
        kb = KnowledgeBase(paper_kb.accuracies, (
            PriorityOverride("ECMWF", "GFS"),
            PriorityOverride("GFS", "ECMWF", Condition.WIND, "Sea"),
        ))
        assert override_winner(kb, "GFS", "ECMWF", Condition.WIND, "Sea") == "GFS"
        assert override_winner(kb, "GFS", "ECMWF", Condition.WIND, "North") == "ECMWF"
        assert override_winner(kb, "GFS", "ECMWF", Condition.SEA, "Sea") == "ECMWF"

    def test_condition_scope_beats_location_scope(self, paper_kb):
        kb = KnowledgeBase(paper_kb.accuracies, (
            PriorityOverride("ECMWF", "GFS", None, "Sea"),
            PriorityOverride("GFS", "ECMWF", Condition.WIND, None),
        ))
        assert override_winner(kb, "GFS", "ECMWF", Condition.WIND, "Sea") == "GFS"

    def test_specificity_enumeration(self, paper_kb):
        # Every scope level answers for its own queries.
        levels = [
            PriorityOverride("A", "B"),
            PriorityOverride("B", "A", None, "Sea"),
            PriorityOverride("A", "B", Condition.WIND, None),
            PriorityOverride("B", "A", Condition.WIND, "Sea"),
        ]
        kb = KnowledgeBase(paper_kb.accuracies, tuple(levels))
        assert override_winner(kb, "A", "B") == "A"
        assert override_winner(kb, "A", "B", Condition.SEA, "Sea") == "B"
        assert override_winner(kb, "A", "B", Condition.WIND, "North") == "A"
        assert override_winner(kb, "A", "B", Condition.WIND, "Sea") == "B"


class TestValidation:
    def test_winner_equals_loser(self):
        with pytest.raises(SchemaError):
            KnowledgeBase(overrides=(PriorityOverride("GFS", "GFS"),))

    def test_cycle_within_scope(self):
        with pytest.raises(SchemaError):
            KnowledgeBase(overrides=(
                PriorityOverride("A", "B"),
                PriorityOverride("B", "C"),
                PriorityOverride("C", "A"),
            ))

    def test_same_pair_in_different_scopes_is_fine(self):
        KnowledgeBase(overrides=(
            PriorityOverride("A", "B"),
            PriorityOverride("B", "A", Condition.WIND, None),
        ))

    def test_accuracy_bounds(self):
        with pytest.raises(SchemaError):
            KnowledgeBase(accuracies=(AccuracyRecord("GFS", 1, Fraction(13, 10)),))

    def test_duplicate_record(self):
        with pytest.raises(SchemaError):
            KnowledgeBase(accuracies=(
                AccuracyRecord("GFS", 1, Fraction(1, 2)),
                AccuracyRecord("GFS", 1, Fraction(1, 4)),
            ))

    def test_override_chain_of_1500_methods(self):
        chain = tuple(PriorityOverride(f"M{i}", f"M{i + 1}") for i in range(1499))
        assert len(KnowledgeBase(overrides=chain).overrides) == 1499
        with pytest.raises(SchemaError, match="cycle"):
            KnowledgeBase(overrides=chain + (PriorityOverride("M1499", "M0"),))

    def test_observation_not_overridable(self):
        with pytest.raises(SchemaError):
            KnowledgeBase(accuracies=(AccuracyRecord("O", 1, Fraction(1, 2)),))


class TestDocumentFormat:
    def test_minimal_document(self):
        kb = load_kb(b'{"accuracies": {"GFS": {"1": 0.5}}}')
        assert kb.accuracies == (AccuracyRecord("GFS", 1, Fraction(1, 2)),)
        assert kb.min_micros == 0

    def test_paper_figures_round_trip(self, paper_kb):
        doc = {"accuracies": {"ECMWF": {"1": 0.85, "2": 0.80},
                              "GFS": {"1": 0.45, "2": 0.40}}}
        assert load_kb(json.dumps(doc).encode()) == paper_kb

    def test_out_of_range_accuracy_rejected(self):
        with pytest.raises(SchemaError) as err:
            load_kb(b'{"accuracies": {"GFS": {"1": 1.3}}}')
        assert "GFS" in str(err.value)

    @pytest.mark.parametrize("doc, path", [
        ('{"accuracies": {"GFS": {"367": 0.5}}}', "accuracies.GFS.367"),
        pytest.param('{"accuracies": {"GFS": {"%s": 0.5}}}' % ("9" * 5000),
                     "accuracies.GFS.999", id="5000-digit-horizon"),
        ('{"accuracies": {"GFS": {"1": 1e-5000}}}', "accuracies.GFS.1"),
        ('{"accuracies": {"GFS": {"1": "0.5"}}}', "accuracies.GFS.1"),
        pytest.param('{"min_accuracy": %s}' % ("1" * 5000), "min_accuracy",
                     id="5000-digit-min-accuracy"),
        ('{"overrides": 5}', "overrides"),
        ('{"overrides": [{"winner": 5, "loser": "GFS"}]}', "overrides[0]"),
        ('{"overrides": [{"winner": "A", "loser": "B", "location": []}]}',
         "overrides[0].location"),
    ])
    def test_out_of_bounds_or_mistyped_value_rejected(self, doc, path):
        with pytest.raises(SchemaError) as err:
            load_kb(doc.encode())
        assert err.value.path.startswith(path)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(SchemaError) as err:
            load_kb(b'{"accuracy": {}}')
        assert "accuracy" in str(err.value)


_methods = st.sampled_from(["ECMWF", "GFS", "ICON", "ARPAE"])
_accuracy = st.integers(0, 1000).map(lambda n: Fraction(n, 1000))


@st.composite
def knowledge_bases(draw):
    pairs = draw(st.sets(st.tuples(_methods, st.integers(0, 5)), max_size=8))
    records = tuple(AccuracyRecord(m, h, draw(_accuracy)) for m, h in pairs)
    overrides = []
    winner_loser = draw(st.sets(
        st.tuples(_methods, _methods).filter(lambda p: p[0] != p[1]),
        max_size=3))
    for winner, loser in winner_loser:
        scope_cond = draw(st.sampled_from([None, Condition.WIND, Condition.SEA]))
        scope_loc = draw(st.sampled_from([None, "Sea", "North"]))
        overrides.append(PriorityOverride(winner, loser, scope_cond, scope_loc))
    try:
        return KnowledgeBase(records, tuple(overrides), draw(_accuracy))
    except SchemaError:  # override set happened to form a cycle
        return KnowledgeBase(records, (), draw(_accuracy))


def _document(kb: KnowledgeBase) -> bytes:
    """A KB document holding kb's records; every accuracy is a whole number
    of thousandths, so its float spells it exactly."""
    accuracies: dict[str, dict[str, float]] = {}
    for rec in kb.accuracies:
        accuracies.setdefault(rec.method, {})[str(rec.horizon)] = rec.micros / 10**6
    overrides = []
    for ov in kb.overrides:
        item = {"winner": ov.winner, "loser": ov.loser}
        if ov.condition is not None:
            item["condition"] = ov.condition.value
        if ov.location is not None:
            item["location"] = ov.location
        overrides.append(item)
    return json.dumps({"accuracies": accuracies, "overrides": overrides,
                       "min_accuracy": kb.min_micros / 10**6}).encode()


@given(knowledge_bases())
def test_load_save_identity(kb):
    assert load_kb(_document(kb)) == kb


@given(knowledge_bases(), _methods, _methods)
def test_override_winner_antisymmetric(kb, a, b):
    if a == b:
        return
    assert override_winner(kb, a, b) == override_winner(kb, b, a)
