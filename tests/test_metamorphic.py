"""Metamorphic relations of the fusion: changes to the inputs that must leave
the forecast as it is, or keep it inside bounds the inputs set.

Every relation runs over seeded draws of `genutil.random_two_model_inputs`,
with two methods and with four. Each magnitude is moved down by nothing, a
quarter or a half unit, so that blends have fractions to round.
"""

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from fusecast.bulletin import extract_scenario, render_document, render_sharp
from fusecast.kb import KnowledgeBase
from fusecast.model import Label, LabeledAssertionalMap, TimeRef, Value
from fusecast.reasoner import conclusions
from fusecast.theory import method_tag, serialize_theory
from fusecast.tournament import build_theory

from genutil import random_two_model_inputs

NOW = TimeRef(horizon=0)
ABSOLUTE_NOW = TimeRef(instant=datetime(2024, 1, 1, 12, tzinfo=timezone.utc))
METHODS = {"two": ("Alpha", "Beta"), "four": ("Alpha", "Beta", "Gamma", "Delta")}
by_methods = pytest.mark.parametrize("methods", METHODS.values(), ids=METHODS)


def _draws(methods, seeds=range(60)):
    for seed in seeds:
        rng = random.Random(seed)
        lams, kb = random_two_model_inputs(rng, methods)
        yield [lam._replace(map=lam.map._replace(value=Value(
            max(lam.map.value.micros - rng.choice((0, 250_000, 500_000)), 0),
            lam.map.value.direction))) for lam in lams], kb


def _theory_text(lams, kb, now=NOW):
    return serialize_theory(build_theory(lams, kb, now))


def _bulletin(lams, kb):
    scenario = extract_scenario(conclusions(build_theory(lams, kb, NOW)))
    return render_document(render_sharp(scenario, generated_at=str(NOW)), "json")


def _slot(entry):
    return entry.condition, entry.location, entry.horizon


def _values_by_slot(lams):
    """Model values and observed values per slot (condition, location, day)."""
    models, observed = {}, {}
    for lam in lams:
        m = lam.map
        slot = (m.condition, m.location, m.valid_at.horizon - NOW.horizon)
        (observed if lam.is_observation else models).setdefault(slot, []).append(m.value)
    return models, observed


@by_methods
def test_a_duplicated_document_gives_the_same_theory(methods):
    for lams, kb in _draws(methods):
        text = _theory_text(lams, kb)
        for method in (*methods, "O"):
            copy = [lam for lam in lams if lam.label.method == method]
            assert _theory_text(lams + copy, kb) == text, method


@by_methods
def test_a_model_below_min_accuracy_leaves_the_bulletin_as_it_is(methods):
    for lams, kb in _draws(methods):
        floor = min(min(horizons.values()) for horizons in kb.accuracies.values())
        kept = KnowledgeBase(kb.accuracies, kb.overrides, floor)
        with_low = KnowledgeBase({**kb.accuracies, "Low": dict.fromkeys((0, 1, 2), floor - 1)},
                                 kb.overrides, floor)
        low = [LabeledAssertionalMap(Label("Low", NOW), lam.map._replace(
            value=Value(lam.map.value.micros // 2, lam.map.value.direction)))
            for lam in lams if lam.label.method == methods[0]]
        assert _bulletin(lams + low, with_low) == _bulletin(lams, kept)


@by_methods
def test_each_unobserved_slot_lies_between_its_model_values(methods):
    for lams, kb in _draws(methods):
        models, observed = _values_by_slot(lams)
        scenario = extract_scenario(conclusions(build_theory(lams, kb, NOW)))
        unobserved = [entry for entry in scenario.entries if _slot(entry) not in observed]
        assert {_slot(entry) for entry in unobserved} == models.keys() - observed.keys()
        for entry in unobserved:
            micros = [value.micros for value in models[_slot(entry)]]
            assert min(micros) <= entry.value.micros <= max(micros), entry


@by_methods
def test_each_observed_slot_says_the_observation(methods):
    seen = 0
    for lams, kb in _draws(methods):
        _, observed = _values_by_slot(lams)
        scenario = extract_scenario(conclusions(build_theory(lams, kb, NOW)))
        said = {_slot(entry): entry.value for entry in scenario.entries}
        for slot, (value,) in observed.items():
            assert said[slot] == value, slot
            seen += 1
    assert seen


@by_methods
def test_absolute_spellings_under_an_absolute_now_give_the_same_theory(methods):
    """hK under an absolute `now` is the instant K days after it, and any
    instant on that calendar day is day K too. So each draw, with every
    generation and validity written at random as the instant or left as
    hK, gives under ABSOLUTE_NOW the theory it gives under h0; mixing the
    two kinds in one assertion is what a lead read against the label alone
    gets wrong."""
    for seed, (lams, kb) in enumerate(_draws(methods)):
        rng = random.Random(seed)
        labels = {lam.label: rng.choice((lam.label, lam.label._replace(
            generated_at=ABSOLUTE_NOW))) for lam in lams}

        def spelled(t):
            if rng.random() < 0.5:
                return t
            day = ABSOLUTE_NOW.instant.replace(hour=0) + timedelta(days=t.horizon)
            return TimeRef(instant=day + timedelta(hours=rng.randrange(24)))

        written = [LabeledAssertionalMap(labels[lam.label], lam.map._replace(
            valid_at=spelled(lam.map.valid_at))) for lam in lams]
        assert _theory_text(written, kb, ABSOLUTE_NOW) == _theory_text(lams, kb), seed


#: Each method renamed so that the method ids sort the other way round.
RENAMED = {"Alpha": "Zulu", "Beta": "Yankee", "Gamma": "Whiskey", "Delta": "Victor"}
RENAMED_TAGS = {method_tag(old): method_tag(new) for old, new in RENAMED.items()}


@by_methods
def test_renamed_methods_give_the_same_bulletin_body(methods):
    """Outside a full tie, which sift breaks by method id, a model's name
    plays no part in the fusion: renaming the methods renames the header's
    sources and leaves every section as it is."""
    compared = 0
    for lams, kb in _draws(methods):
        leads = [lead for horizons in kb.accuracies.values() for lead in horizons.items()]
        if len(set(leads)) < len(leads):
            continue  # two methods equally accurate at one lead: a round may tie
        renamed = KnowledgeBase({RENAMED[method]: horizons
                                 for method, horizons in kb.accuracies.items()},
                                kb.overrides, kb.min_micros)
        relabeled = [lam._replace(label=lam.label._replace(method=RENAMED[lam.label.method]))
                     if lam.label.method in RENAMED else lam for lam in lams]
        expected = json.loads(_bulletin(lams, kb))
        header = expected["header"]
        header["sources"] = sorted(RENAMED_TAGS[tag] for tag in header["sources"])
        assert json.loads(_bulletin(relabeled, renamed)) == expected
        compared += 1
    assert compared > 40
