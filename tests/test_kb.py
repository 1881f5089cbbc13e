import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import SchemaError, UnknownMethodError
from fusecast.kb import KnowledgeBase, accuracy_of, load_kb, override_winner
from fusecast.ingest import parse_source_map
from fusecast.inputs import has_cycle
from fusecast.model import Condition


@pytest.fixture
def paper_kb():
    return KnowledgeBase({"ECMWF": {1: 850_000, 2: 800_000}, "GFS": {1: 450_000, 2: 400_000}})


def _overrides(*items) -> dict:
    """The overrides table for (winner, loser, condition, location) items."""
    return {(frozenset((w, l)), c, loc): w for w, l, c, loc in items}


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
        kb = KnowledgeBase(paper_kb.accuracies, _overrides(("ECMWF", "GFS", None, None)))
        assert override_winner(kb, "GFS", "ECMWF") == "ECMWF"
        assert override_winner(kb, "ECMWF", "GFS") == "ECMWF"  # antisymmetric

    def test_scoped_override_beats_global(self, paper_kb):
        kb = KnowledgeBase(paper_kb.accuracies, _overrides(
            ("ECMWF", "GFS", None, None),
            ("GFS", "ECMWF", Condition.WIND, "Sea"),
        ))
        assert override_winner(kb, "GFS", "ECMWF", Condition.WIND, "Sea") == "GFS"
        assert override_winner(kb, "GFS", "ECMWF", Condition.WIND, "North") == "ECMWF"
        assert override_winner(kb, "GFS", "ECMWF", Condition.SEA, "Sea") == "ECMWF"

    def test_condition_scope_beats_location_scope(self, paper_kb):
        kb = KnowledgeBase(paper_kb.accuracies, _overrides(
            ("ECMWF", "GFS", None, "Sea"),
            ("GFS", "ECMWF", Condition.WIND, None),
        ))
        assert override_winner(kb, "GFS", "ECMWF", Condition.WIND, "Sea") == "GFS"

    def test_specificity_enumeration(self, paper_kb):
        # Every scope level answers for its own queries.
        kb = KnowledgeBase(paper_kb.accuracies, _overrides(
            ("A", "B", None, None),
            ("B", "A", None, "Sea"),
            ("A", "B", Condition.WIND, None),
            ("B", "A", Condition.WIND, "Sea"),
        ))
        assert override_winner(kb, "A", "B") == "A"
        assert override_winner(kb, "A", "B", Condition.SEA, "Sea") == "B"
        assert override_winner(kb, "A", "B", Condition.WIND, "North") == "A"
        assert override_winner(kb, "A", "B", Condition.WIND, "Sea") == "B"


def _error(doc: dict) -> SchemaError:
    """The error load_kb raises on the document."""
    with pytest.raises(SchemaError) as err:
        load_kb(json.dumps(doc).encode())
    return err.value


_ABC = {"A": {"1": 0.5}, "B": {"1": 0.5}, "C": {"1": 0.5}}


class TestValidation:
    """load_kb checks each part where it reads it, at the document's own path."""

    def test_winner_equals_loser(self):
        err = _error({"accuracies": {"GFS": {"1": 0.5}},
                      "overrides": [{"winner": "GFS", "loser": "GFS"}]})
        assert (err.path, err.message) == ("overrides[0]", "winner equals loser")

    def test_cycle_within_scope(self):
        cycle = [{"winner": "A", "loser": "B"}, {"winner": "B", "loser": "C"},
                 {"winner": "C", "loser": "A"}]
        err = _error({"accuracies": _ABC, "overrides": cycle})
        assert str(err) == ("overrides: priority overrides form a cycle within scope "
                            "condition any, location any")
        scoped = [{**ov, "condition": "wind", "location": "Sea"} for ov in cycle]
        err = _error({"accuracies": _ABC, "overrides": [cycle[0], *scoped]})
        assert str(err) == ("overrides: priority overrides form a cycle within scope "
                            "condition wind, location Sea")

    def test_same_pair_in_different_scopes_is_fine(self):
        kb = load_kb(json.dumps({"accuracies": _ABC, "overrides": [
            {"winner": "A", "loser": "B"},
            {"winner": "B", "loser": "A", "condition": "wind"},
        ]}).encode())
        assert kb.overrides == _overrides(("A", "B", None, None),
                                          ("B", "A", Condition.WIND, None))

    def test_accuracy_bounds(self):
        err = _error({"accuracies": {"GFS": {"1": 1.3}}})
        assert str(err) == "accuracies.GFS.1: accuracy 1.3 outside [0, 1]"

    def test_duplicate_record(self):
        err = _error({"accuracies": {"GFS": {"1": 0.5, "01": 0.25}}})
        assert str(err) == "accuracies.GFS.01: duplicate (method, horizon) record"

    def test_override_chain_of_1500_methods(self):
        accuracies = {f"M{i}": {"1": 0.5} for i in range(1500)}
        chain = [{"winner": f"M{i}", "loser": f"M{i + 1}"} for i in range(1499)]
        doc = {"accuracies": accuracies, "overrides": chain}
        assert len(load_kb(json.dumps(doc).encode()).overrides) == 1499
        doc["overrides"] = chain + [{"winner": "M1499", "loser": "M0"}]
        err = _error(doc)
        assert err.path == "overrides" and "cycle" in err.message

    def test_observation_not_overridable(self):
        err = _error({"accuracies": {"O": {"1": 0.5}}})
        assert err.path == "accuracies.O" and "observation method" in err.message


class TestDocumentFormat:
    def test_minimal_document(self):
        kb = load_kb(b'{"accuracies": {"GFS": {"1": 0.5}}}')
        assert kb.accuracies == {"GFS": {1: 500_000}}
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
        ('{"accuracies": {"GFS": {"1": 0.1234567}}}', "accuracies.GFS.1"),
        ('{"accuracies": {"GFS": {"1": "0.5"}}}', "accuracies.GFS.1"),
        pytest.param('{"min_accuracy": %s}' % ("1" * 5000), "min_accuracy",
                     id="5000-digit-min-accuracy"),
        ('{"overrides": 5}', "overrides"),
        ('{"overrides": [{"winner": 5, "loser": "GFS"}]}', "overrides[0]"),
        ('{"overrides": [{"winner": "A", "loser": "B", "location": []}]}',
         "overrides[0].location"),
        pytest.param('{"accuracies": {"GFS": {"1": 0.5}, "ECMWF": {"1": 0.8}}, "overrides":'
                     ' [{"winner": "GFS", "loser": "ECMWF", "location": null}]}',
                     "overrides[0].location", id="null-location"),
        ('{"accuracies": {"GFS": {"1": 0.5}, "ECMWF": {"1": 0.8}},'
         ' "overrides": [{"winner": "GFS", "loser": "ECMWF", "location": "no such place"}]}',
         "overrides[0].location"),
        ('{"accuracies": {"GFS": {"1": 0.5}, "ECMWF": {"1": 0.8}},'
         ' "overrides": [{"winner": "Gfs", "loser": "ECMWF"}]}', "overrides[0].winner"),
        ('{"accuracies": {"GFS": {"1": 0.5}, "ECMWF": {"1": 0.8}},'
         ' "overrides": [{"winner": "GFS", "loser": "ECMWF"}, {"winner": "ECMWF", "loser": "O"}]}',
         "overrides[1].loser"),
        pytest.param('{"accuracies": {"A": {"1": 0.5}, "B": {"1": 0.5}, "C": {"1": 0.5}},'
                     ' "overrides": [{"winner": "B", "loser": "C"}, {"winner": "A", "loser": "A"}]}',
                     "overrides[1]", id="path-in-document-order"),
        pytest.param('{"accuracies": {"GFS": {"1": 0.5, "01": 0.6}}}', "accuracies.GFS.01",
                     id="duplicate-horizon-at-its-own-key"),
        pytest.param('{"accuracies": {"GFS": {"01": 1.5}}}', "accuracies.GFS.01",
                     id="accuracy-bound-at-its-own-key"),
        pytest.param('{"accuracies": {"O": {"1": 0.5}},'
                     ' "overrides": [{"winner": "O", "loser": "GFS"}]}', "accuracies.O",
                     id="observation-method-before-the-overrides"),
        ('{"min_accuracy": 2}', "min_accuracy"),
    ])
    def test_out_of_bounds_or_mistyped_value_rejected(self, doc, path):
        with pytest.raises(SchemaError) as err:
            load_kb(doc.encode())
        assert err.value.path.startswith(path)

    @pytest.mark.parametrize("method", ["x y", "XR0", "H1"])
    def test_method_id_no_source_map_can_carry(self, method):
        """Refused at its own key, with the message ingest gives a map's method."""
        with pytest.raises(SchemaError) as ingested:
            parse_source_map(json.dumps({"method": method, "generated_at": "h0"}).encode())
        with pytest.raises(SchemaError) as loaded:
            load_kb(json.dumps({"accuracies": {"GFS": {"1": 0.5}, method: {"1": 0.5}}}).encode())
        assert (loaded.value.path, loaded.value.message) == (
            f"accuracies.{method}", ingested.value.message)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(SchemaError) as err:
            load_kb(b'{"accuracy": {}}')
        assert "accuracy" in str(err.value)


_methods = st.sampled_from(["ECMWF", "GFS", "ICON", "ARPAE"])
_accuracy = st.integers(0, 1000).map(lambda n: n * 1000)  # millionths


@st.composite
def knowledge_bases(draw):
    pairs = draw(st.sets(st.tuples(_methods, st.integers(0, 5)), max_size=8))
    accuracies: dict[str, dict[int, int]] = {}
    for m, h in sorted(pairs):
        accuracies.setdefault(m, {})[h] = draw(_accuracy)
    overrides = []
    # load_kb refuses an override naming a method without an accuracy record.
    recorded = sorted(accuracies)
    winner_loser = set()
    if len(recorded) > 1:
        winner_loser = draw(st.sets(
            st.tuples(st.sampled_from(recorded), st.sampled_from(recorded))
            .filter(lambda p: p[0] != p[1]),
            max_size=3))
    for winner, loser in winner_loser:
        scope_cond = draw(st.sampled_from([None, Condition.WIND, Condition.SEA]))
        # load_kb refuses a sea override scoped to a location other than Sea.
        scope_loc = draw(st.sampled_from([None, "Sea"] if scope_cond is Condition.SEA
                                         else [None, "Sea", "North"]))
        overrides.append((winner, loser, scope_cond, scope_loc))
    scopes: dict[tuple, list] = {}
    for winner, loser, *scope in overrides:
        scopes.setdefault(tuple(scope), []).append((winner, loser))
    if any(has_cycle(edges) for edges in scopes.values()):  # load_kb refuses a cycle
        overrides = []
    return KnowledgeBase(accuracies, _overrides(*overrides), draw(_accuracy))


def _document(kb: KnowledgeBase) -> bytes:
    """A KB document holding kb's tables; every accuracy is a whole number
    of thousandths, so its float spells it exactly."""
    accuracies = {method: {str(h): micros / 10**6 for h, micros in horizons.items()}
                  for method, horizons in kb.accuracies.items()}
    overrides = []
    for (pair, condition, location), winner in kb.overrides.items():
        (loser,) = pair - {winner}
        item = {"winner": winner, "loser": loser}
        if condition is not None:
            item["condition"] = condition.value
        if location is not None:
            item["location"] = location
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


@given(knowledge_bases(), st.one_of(_methods, st.just("O")), st.integers(0, 366))
def test_accuracy_of_follows_its_rule(kb, method, horizon):
    """The record at the largest horizon <= h, or else the record at the
    smallest horizon; 1.0 for O; an error for a method with no records."""
    by_horizon = kb.accuracies.get(method, {})
    if method == "O":
        assert accuracy_of(kb, method, horizon) == 1_000_000
    elif not by_horizon:
        with pytest.raises(UnknownMethodError):
            accuracy_of(kb, method, horizon)
    else:
        below = [h for h in by_horizon if h <= horizon]
        expected = by_horizon[max(below) if below else min(by_horizon)]
        assert accuracy_of(kb, method, horizon) == expected
