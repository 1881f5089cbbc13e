"""The knowledge base's and the lexicon's work grows with the input, not faster.

`sys.settrace` counts the lines one module runs on shapes at n = 100, 200
and 400: the lines of `fusecast/kb.py` while `load_kb` reads a KB document
and `build_theory` folds the assertions, on two shapes, and the lines of
`fusecast/lexicon.py` while `load_lexicon` reads n bands and `classify`
places n values in them. On one Python version a count is the same on every
run and every host, so a bound on it holds where timings would be noise.
A lookup that scans the whole document shows up as about 4x per doubling.
"""

import json
import sys

import pytest

from fusecast import kb, lexicon
from fusecast.inputs import MILLION
from fusecast.model import AssertionalMap, Condition, Label, LabeledAssertionalMap, TimeRef, Value
from fusecast.tournament import build_theory

SIZES = (100, 200, 400)
MAX_GROWTH = 2.15  # per doubling of n
NOW = TimeRef(horizon=0)


def _assertion(method: str, location: str, percent: int) -> LabeledAssertionalMap:
    return LabeledAssertionalMap(Label(method, NOW), AssertionalMap(
        Condition.CLOUDINESS, location, TimeRef(horizon=1), Value(percent * MILLION)))


def _grid_with_overrides(n: int):
    """Two conflicting models on n locations, and n overrides between them,
    each scoped to a location no assertion has."""
    doc = {"accuracies": {"A": {"1": 0.8}, "B": {"1": 0.4}},
           "overrides": [{"winner": "B", "loser": "A", "location": f"Z{i}"} for i in range(n)]}
    lams = [_assertion(method, f"L{i}", percent)
            for i in range(n) for method, percent in (("A", 20), ("B", 80))]
    return json.dumps(doc).encode(), lams


def _models_on_one_slot(n: int):
    """n models, each with its own accuracy, on one slot."""
    doc = {"accuracies": {f"M{i}": {"1": (i + 1) / 1000} for i in range(n)}}
    lams = [_assertion(f"M{i}", "North", i % 101) for i in range(n)]
    return json.dumps(doc).encode(), lams


def _lines(module, run) -> int:
    """Lines of `module`'s file run by the call run()."""
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return count_lines

    def on_call(frame, event, arg):
        return count_lines if frame.f_code.co_filename == module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def _assert_linear(counts):
    for small, large in zip(counts, counts[1:]):
        assert large <= MAX_GROWTH * small, counts


@pytest.mark.parametrize("shape", [_grid_with_overrides, _models_on_one_slot])
def test_kb_lines_grow_at_most_linearly(shape):
    inputs = [shape(n) for n in SIZES]
    _assert_linear([_lines(kb, lambda: build_theory(lams, kb.load_kb(document), NOW))
                    for document, lams in inputs])


def test_lexicon_lines_grow_at_most_linearly():
    """n temperature bands, one unit wide, and a value in each of them."""
    def run(n):
        bands = [[i + 1, f"T{i}"] for i in range(n)] + [[None, "Hot"]]
        document = json.dumps({"temperature": bands}).encode()
        values = [Value(i * MILLION + MILLION // 2) for i in range(n)]

        def classify_all():
            table = lexicon.load_lexicon(document)
            for value in values:
                lexicon.classify(Condition.TEMPERATURE, value, table)
        return _lines(lexicon, classify_all)

    _assert_linear([run(n) for n in SIZES])
