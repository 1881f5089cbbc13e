"""Method accuracies, expert priority overrides, and the reliability threshold.

The knowledge base is immutable after load and read-only everywhere else.
File format (UTF-8 JSON, exact decimals preserved):

    {"accuracies": {"ECMWF": {"1": 0.85, "2": 0.80}, ...},
     "overrides": [{"winner": "...", "loser": "...",
                    "condition": "wind"?, "location": "Sea"?}, ...],
     "min_accuracy": 0}
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple, Optional

from .errors import ForecastError, SchemaError, UnknownMethodError
from .inputs import (
    MAX_HORIZON, MILLION, exact_number, has_cycle, parse_horizon, read_json_object)
from .model import NAME_RE, Condition, OBSERVATION_METHOD, decimal_str


class AccuracyRecord(NamedTuple):
    """A method's accuracy at one horizon, in millionths."""

    method: str
    horizon: int
    micros: int


class PriorityOverride(NamedTuple):
    """An expert override: `winner` beats `loser`, optionally only within a
    (condition, location) scope. Unset scope fields mean "any"."""

    winner: str
    loser: str
    condition: Optional[Condition] = None
    location: Optional[str] = None

    @property
    def specificity(self) -> int:
        return 2 * (self.condition is not None) + (self.location is not None)


class _KnowledgeBase(NamedTuple):
    accuracies: tuple[AccuracyRecord, ...]
    overrides: tuple[PriorityOverride, ...]
    min_micros: int


class KnowledgeBase(_KnowledgeBase):
    """Records sorted by (method, horizon), overrides sorted, and the
    reliability threshold in millionths; validated when built, in the
    caller's order, so an error path indexes the caller's overrides."""

    __slots__ = ()

    def __new__(cls, accuracies=(), overrides=(), min_micros=0):
        given = _KnowledgeBase(tuple(accuracies), tuple(overrides), min_micros)
        _validate(given)
        accuracies = tuple(sorted(given.accuracies, key=lambda r: (r.method, r.horizon)))
        overrides = tuple(sorted(given.overrides, key=lambda o: (
            o.winner, o.loser, o.condition.value if o.condition else "", o.location or "")))
        return super().__new__(cls, accuracies, overrides, min_micros)


def _validate(kb: _KnowledgeBase) -> None:
    seen = set()
    for rec in kb.accuracies:
        if rec.method == OBSERVATION_METHOD:
            raise SchemaError(
                f"accuracies.{rec.method}",
                "the observation method has implicit accuracy 1.0 and may not be overridden",
            )
        if not 0 <= rec.micros <= MILLION:
            raise SchemaError(
                f"accuracies.{rec.method}.{rec.horizon}",
                f"accuracy {decimal_str(rec.micros)} outside [0, 1]",
            )
        key = (rec.method, rec.horizon)
        if key in seen:
            raise SchemaError(f"accuracies.{rec.method}.{rec.horizon}",
                              "duplicate (method, horizon) record")
        seen.add(key)
    if not 0 <= kb.min_micros <= MILLION:
        raise SchemaError("min_accuracy", f"{decimal_str(kb.min_micros)} outside [0, 1]")
    by_scope: dict[tuple, list[PriorityOverride]] = {}
    for i, ov in enumerate(kb.overrides):
        if ov.winner == ov.loser:
            raise SchemaError(f"overrides[{i}]", "winner equals loser")
        by_scope.setdefault((ov.condition, ov.location), []).append(ov)
    for scope, ovs in by_scope.items():
        if has_cycle((ov.winner, ov.loser) for ov in ovs):
            raise SchemaError(
                "overrides",
                f"priority overrides form a cycle within scope {scope}",
            )


def accuracy_of(kb: KnowledgeBase, method: str, horizon: int) -> int:
    """Accuracy of a method at a forecast horizon, in millionths.

    Observations are axiomatically 1.0. Missing horizons fall back to the
    nearest smaller recorded horizon (accuracy decays with horizon, so the
    nearer value is conservative); with no smaller record, the smallest
    recorded horizon is used. A method with no records at all is an error.
    """
    if method == OBSERVATION_METHOD:
        return MILLION
    records = [rec for rec in kb.accuracies if rec.method == method]
    if not records:
        raise UnknownMethodError(f"unknown method: {method!r}")
    return next((rec for rec in reversed(records) if rec.horizon <= horizon),
                records[0]).micros


def override_winner(
    kb: KnowledgeBase,
    a: str,
    b: str,
    condition: Optional[Condition] = None,
    location: Optional[str] = None,
) -> Optional[str]:
    """The override winner between methods a and b, if any override matches.

    Most specific scope wins: (condition, location) > condition-only >
    location-only > global. Antisymmetric in (a, b) by construction, and
    None when a == b, since no override has its winner as its loser.
    """
    candidates = [
        ov for ov in kb.overrides
        if {ov.winner, ov.loser} == {a, b}
        and (ov.condition is None or ov.condition is condition)
        and (ov.location is None or ov.location == location)
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda ov: ov.specificity).winner


def load_kb(data: bytes) -> KnowledgeBase:
    """Parse and validate a KB document."""
    doc = read_json_object(data)
    for key in doc:
        if key not in ("accuracies", "overrides", "min_accuracy"):
            raise SchemaError(key, "unknown key")

    records = []
    accs = doc.get("accuracies", {})
    if not isinstance(accs, dict):
        raise SchemaError("accuracies", "must be an object keyed by method id")
    for method, horizons in accs.items():
        if not isinstance(horizons, dict) or not horizons:
            raise SchemaError(f"accuracies.{method}",
                              "must be a non-empty object keyed by horizon")
        for h, acc in horizons.items():
            path = f"accuracies.{method}.{h}"
            try:
                horizon = parse_horizon(f"h{h}")
            except ForecastError:
                raise SchemaError(path, f"horizon keys are integers 0..{MAX_HORIZON}") from None
            records.append(AccuracyRecord(method, horizon, exact_number(acc, path)))

    raw_overrides = doc.get("overrides", [])
    if not isinstance(raw_overrides, list):
        raise SchemaError("overrides", "must be a list")
    overrides = []
    for i, item in enumerate(raw_overrides):
        if not isinstance(item, dict):
            raise SchemaError(f"overrides[{i}]", "must be an object")
        for key in item:
            if key not in ("winner", "loser", "condition", "location"):
                raise SchemaError(f"overrides[{i}].{key}", "unknown key")
        winner, loser, location = item.get("winner"), item.get("loser"), item.get("location")
        if not (isinstance(winner, str) and isinstance(loser, str)):
            raise SchemaError(f"overrides[{i}]", "winner and loser must be method ids")
        if location is not None and not (isinstance(location, str) and NAME_RE.match(location)):
            raise SchemaError(f"overrides[{i}].location", "must be a location name")
        condition = None
        if "condition" in item:
            try:
                condition = Condition(item["condition"])
            except ValueError:
                raise SchemaError(f"overrides[{i}].condition",
                                  f"unknown condition {item['condition']!r}") from None
        for role, method in (("winner", winner), ("loser", loser)):
            if method not in accs:  # the tournament refuses such a method
                raise SchemaError(f"overrides[{i}].{role}",
                                  f"no accuracy record for method {method!r}")
        overrides.append(PriorityOverride(winner, loser, condition, location))

    min_acc = exact_number(doc.get("min_accuracy", Decimal(0)), "min_accuracy")
    return KnowledgeBase(records, overrides, min_acc)

