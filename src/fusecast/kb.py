"""Method accuracies, expert priority overrides, and the reliability threshold.

The knowledge base is read-only after load. File format (UTF-8 JSON, exact
decimals preserved):

    {"accuracies": {"ECMWF": {"1": 0.85, "2": 0.80}, ...},
     "overrides": [{"winner": "...", "loser": "...",
                    "condition": "wind"?, "location": "Sea"?}, ...],
     "min_accuracy": 0}

`load_kb` checks each part where it reads it, so an error names the
document's own path (`accuracies.GFS.01`, `overrides[2]`). It keeps the
accuracies in the document's shape and the overrides keyed by pair and
scope, so each lookup is a few dict hits, whatever the document's size.
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple, Optional

from .errors import ForecastError, SchemaError, UnknownMethodError
from .inputs import (
    MAX_HORIZON, MILLION, exact_number, has_cycle, parse_horizon, read_json_object)
from .model import NAME_RE, Condition, OBSERVATION_METHOD, decimal_str
from .theory import atom_head, check_method_id


class KnowledgeBase(NamedTuple):
    """The document's own lookup tables, with accuracies in millionths.

    `accuracies` maps a method to {horizon: accuracy}. `overrides` maps
    (frozenset of the two methods, condition or None, location or None) to
    the winner, where None means "any". `min_micros` is the reliability
    threshold. Built without checks: `load_kb` checks a document where it
    reads each part, at that part's path. The default tables are shared, as
    every table is read-only after it is built."""

    accuracies: dict[str, dict[int, int]] = {}
    overrides: dict[tuple[frozenset[str], Optional[Condition], Optional[str]], str] = {}
    min_micros: int = 0


def accuracy_of(kb: KnowledgeBase, method: str, horizon: int) -> int:
    """Accuracy of a method at a forecast horizon, in millionths.

    Observations are axiomatically 1.0. Missing horizons fall back to the
    nearest smaller recorded horizon (accuracy decays with horizon, so the
    nearer value is conservative); with no smaller record, the smallest
    recorded horizon is used. A method with no records at all is an error.
    """
    if method == OBSERVATION_METHOD:
        return MILLION
    horizons = kb.accuracies.get(method)
    if not horizons:
        raise UnknownMethodError(f"unknown method: {method!r}")
    if horizon not in horizons:
        below = [h for h in horizons if h < horizon]
        horizon = max(below) if below else min(horizons)
    return horizons[horizon]


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
    pair = frozenset((a, b))
    for scope in ((condition, location), (condition, None), (None, location), (None, None)):
        winner = kb.overrides.get((pair, *scope))
        if winner is not None:
            return winner
    return None


def load_kb(data: bytes) -> KnowledgeBase:
    """Parse and check a KB document; an error names its path in the document."""
    doc = read_json_object(data)
    for key in doc:
        if key not in ("accuracies", "overrides", "min_accuracy"):
            raise SchemaError(key, "unknown key")

    accuracies: dict[str, dict[int, int]] = {}
    accs = doc.get("accuracies", {})
    if not isinstance(accs, dict):
        raise SchemaError("accuracies", "must be an object keyed by method id")
    for method, horizons in accs.items():
        if method == OBSERVATION_METHOD:
            raise SchemaError(
                f"accuracies.{method}",
                "the observation method has implicit accuracy 1.0 and may not be overridden",
            )
        try:
            check_method_id(method)  # as ingest checks a source map's method
        except ForecastError as exc:
            raise SchemaError(f"accuracies.{method}", str(exc)) from None
        if not isinstance(horizons, dict) or not horizons:
            raise SchemaError(f"accuracies.{method}",
                              "must be a non-empty object keyed by horizon")
        table = accuracies[method] = {}  # "1" and "01" name one horizon
        for h, acc in horizons.items():
            path = f"accuracies.{method}.{h}"
            try:
                horizon = parse_horizon(f"h{h}")
            except ForecastError:
                raise SchemaError(path, f"horizon keys are integers 0..{MAX_HORIZON}") from None
            micros = exact_number(acc, path)
            if not 0 <= micros <= MILLION:
                raise SchemaError(path, f"accuracy {decimal_str(micros)} outside [0, 1]")
            if horizon in table:
                raise SchemaError(path, "duplicate (method, horizon) record")
            table[horizon] = micros

    raw_overrides = doc.get("overrides", [])
    if not isinstance(raw_overrides, list):
        raise SchemaError("overrides", "must be a list")
    overrides = {}
    by_scope: dict[tuple, list[tuple[str, str]]] = {}
    for i, item in enumerate(raw_overrides):
        if not isinstance(item, dict):
            raise SchemaError(f"overrides[{i}]", "must be an object")
        for key in item:
            if key not in ("winner", "loser", "condition", "location"):
                raise SchemaError(f"overrides[{i}].{key}", "unknown key")
        winner, loser, location = item.get("winner"), item.get("loser"), item.get("location")
        if not (isinstance(winner, str) and isinstance(loser, str)):
            raise SchemaError(f"overrides[{i}]", "winner and loser must be method ids")
        if "location" in item and not (isinstance(location, str) and NAME_RE.match(location)):
            raise SchemaError(f"overrides[{i}].location", "must be a location name")
        condition = None
        if "condition" in item:
            try:
                condition = Condition(item["condition"])
            except ValueError:
                raise SchemaError(f"overrides[{i}].condition",
                                  f"unknown condition {item['condition']!r}") from None
        if condition is not None and location is not None:
            try:
                atom_head(condition, location)  # a sea override elsewhere than Sea never applies
            except ForecastError as exc:
                raise SchemaError(f"overrides[{i}].location", str(exc)) from None
        for role, method in (("winner", winner), ("loser", loser)):
            if method not in accuracies:  # the tournament refuses such a method
                raise SchemaError(f"overrides[{i}].{role}",
                                  f"no accuracy record for method {method!r}")
        if winner == loser:
            raise SchemaError(f"overrides[{i}]", "winner equals loser")
        overrides[frozenset((winner, loser)), condition, location] = winner
        by_scope.setdefault((condition, location), []).append((winner, loser))
    for (condition, location), edges in by_scope.items():
        if has_cycle(edges):
            raise SchemaError("overrides", "priority overrides form a cycle within scope "
                              f"condition {condition.value if condition else 'any'}, "
                              f"location {location or 'any'}")

    min_micros = exact_number(doc.get("min_accuracy", Decimal(0)), "min_accuracy")
    if not 0 <= min_micros <= MILLION:
        raise SchemaError("min_accuracy", f"{decimal_str(min_micros)} outside [0, 1]")
    return KnowledgeBase(accuracies, overrides, min_micros)
