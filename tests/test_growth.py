"""The knowledge base's work grows with its input, not faster.

`sys.settrace` counts the lines `fusecast/kb.py` runs while `load_kb` reads
a KB document and `build_theory` folds the assertions, on two shapes at
n = 100, 200 and 400. On one Python version a count is the same on every
run and every host, so a bound on it holds where timings would be noise.
A lookup that scans the whole KB shows up as about 4x per doubling.
"""

import json
import sys

import pytest

from fusecast import kb
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


def _kb_lines(document: bytes, lams) -> int:
    """Lines of kb.py run by load_kb and build_theory on one input."""
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return count_lines

    def on_call(frame, event, arg):
        return count_lines if frame.f_code.co_filename == kb.__file__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        build_theory(lams, kb.load_kb(document), NOW)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("shape", [_grid_with_overrides, _models_on_one_slot])
def test_kb_lines_grow_at_most_linearly(shape):
    counts = [_kb_lines(*shape(n)) for n in SIZES]
    for small, large in zip(counts, counts[1:]):
        assert large <= MAX_GROWTH * small, counts
