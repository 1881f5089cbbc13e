"""Parse source forecast maps and observation maps into labeled assertions.

One document = one method + one generation time, mirroring the label granularity:

    {"method": "ECMWF",
     "generated_at": "<ISO-8601 | h0..hN>",
     "entries": [{"condition": "cloudiness", "location": "North",
                  "valid_at": "h1", "magnitude": 75},
                 {"condition": "wind", "location": "North",
                  "valid_at": "h1", "magnitude": 5, "direction": "NE"}, ...]}

Every entry is checked here, where it enters; a location is its name.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ForecastError, SchemaError
from .inputs import MAX_HORIZON, exact_number, read_json_object
from .model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    NAME_RE,
    TimeRef,
    Value,
    check_value,
    hindcast_days,
    horizon_index,
    is_future,
    parse_timeref,
)
from .theory import atom_head, method_tag

_CONDITIONS = {c.value: c for c in Condition}

#: A hindcast entry is tolerated but flagged once it trails the generation
#: time by more than one horizon (day).
HINDCAST_WARN_DAYS = -1


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} at {self.path}: {self.message}"


def parse_source_map(data: bytes) -> list[LabeledAssertionalMap]:
    """One labeled assertion per entry, in document order; raises on the first
    error-grade problem."""
    lams, diagnostics = _scan(data)
    for diag in diagnostics:
        if diag.severity == "error":
            raise SchemaError(diag.path, diag.message)
    return lams


def validate_source_map(data: bytes, now: TimeRef) -> tuple[list[LabeledAssertionalMap],
                                                            list[Diagnostic]]:
    """A document's assertions and all its diagnostics, from one scan; no error
    among them iff check_times(parse_source_map(data), now) returns those."""
    lams, diagnostics = _scan(data)
    if not any(diag.severity == "error" for diag in diagnostics):
        try:
            check_times(lams, now)
        except SchemaError as exc:
            diagnostics.append(Diagnostic("error", exc.path, exc.message))
    return lams, diagnostics


def check_times(lams: list[LabeledAssertionalMap], now: TimeRef) -> list[LabeledAssertionalMap]:
    """One document's parse_source_map result, returned unchanged once every
    time reference can be placed against `now`, in entries sift would drop
    too. Else a SchemaError at the first that cannot: an absolute time under
    a symbolic `now`, a date past the last representable one, a validity
    more than MAX_HORIZON days ahead, or a second entry on one slot (one
    condition at one location on one day from `now` on)."""
    if lams:
        try:
            is_future(lams[0].label.generated_at, now)
        except ForecastError as exc:
            raise SchemaError("generated_at", str(exc)) from None
    slots: dict[tuple, int] = {}
    for i, lam in enumerate(lams):
        m = lam.map
        try:
            horizon = horizon_index(m.valid_at, now)
        except ForecastError as exc:
            raise SchemaError(f"entries[{i}].valid_at", str(exc)) from None
        if horizon > MAX_HORIZON:
            raise SchemaError(f"entries[{i}].valid_at", f"lies {horizon} days after "
                              f"{now}; atoms encode horizons 0..{MAX_HORIZON}")
        first = slots.setdefault((m.condition, m.location, horizon), i)
        if first != i and horizon >= 0:
            raise SchemaError(f"entries[{i}].valid_at", f"second entry for "
                              f"{m.condition.value} @ {m.location} on day h{horizon} "
                              f"from {now}, after entries[{first}]")
    return lams


def _scan(data: bytes) -> tuple[list[LabeledAssertionalMap], list[Diagnostic]]:
    diags: list[Diagnostic] = []

    def err(path: str, message: str) -> None:
        diags.append(Diagnostic("error", path, message))

    try:
        doc = read_json_object(data)
    except SchemaError as exc:
        err(exc.path, exc.message)
        return [], diags
    for key in doc:
        if key not in ("method", "generated_at", "entries"):
            err(key, "unknown key")

    method = doc.get("method")
    if not isinstance(method, str) or not NAME_RE.match(method):
        err("method", "must be an identifier matching [A-Za-z][A-Za-z0-9]*")
        method = "invalid"
    else:
        try:
            method_tag(method)
        except ForecastError as exc:
            err("method", str(exc))

    generated_at = TimeRef(horizon=0)
    try:
        generated_at = parse_timeref(str(doc.get("generated_at", "")))
    except ForecastError as exc:
        err("generated_at", str(exc))

    label = Label(method, generated_at)
    lams: list[LabeledAssertionalMap] = []
    times: dict[str, TimeRef] = {}
    seen: set[tuple] = set()
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        err("entries", "must be a list")
        raw_entries = []
    for i, raw in enumerate(raw_entries):
        path = f"entries[{i}]"
        try:
            entry = _scan_entry(raw, path, times)
        except SchemaError as exc:
            err(exc.path, exc.message)
            continue
        key = (entry.condition, entry.location, entry.valid_at)
        if key in seen:
            err(path, f"duplicate entry for {entry.condition.value} @ "
                      f"{entry.location} @ {entry.valid_at}")
            continue
        seen.add(key)
        days = hindcast_days(entry.valid_at, generated_at)
        if days is not None and days < HINDCAST_WARN_DAYS:
            diags.append(Diagnostic(
                "warning", path,
                f"hindcast entry: valid {-days} days before generation",
            ))
        lams.append(LabeledAssertionalMap(label, entry))

    return lams, diags


def _scan_entry(raw, path: str, times: dict[str, TimeRef]) -> AssertionalMap:
    """One entry; raises SchemaError at the first problem. `times` keeps one
    TimeRef per time string across the document's entries."""
    if not isinstance(raw, dict):
        raise SchemaError(path, "entry must be an object")
    for key in raw:
        if key not in ("condition", "location", "valid_at", "magnitude", "direction"):
            raise SchemaError(f"{path}.{key}", "unknown key")
    condition = raw.get("condition")
    condition = _CONDITIONS.get(condition) if isinstance(condition, str) else None
    if condition is None:
        raise SchemaError(f"{path}.condition",
                          f"unknown condition kind {raw.get('condition')!r}")

    location = raw.get("location")
    if not isinstance(location, str):
        raise SchemaError(f"{path}.location", "must be a location name")
    if not NAME_RE.match(location):
        raise SchemaError(f"{path}.location",
                          f"location name {location!r} must match [A-Za-z][A-Za-z0-9]*")
    try:
        atom_head(condition, location)
    except ForecastError as exc:
        raise SchemaError(f"{path}.location", str(exc)) from None

    text = str(raw.get("valid_at", ""))
    valid_at = times.get(text)
    if valid_at is None:
        try:
            valid_at = times[text] = parse_timeref(text)
        except ForecastError as exc:
            raise SchemaError(f"{path}.valid_at", str(exc)) from None

    micros = exact_number(raw.get("magnitude"), f"{path}.magnitude")
    direction = None
    if "direction" in raw:
        try:
            direction = Compass(raw["direction"])
        except ValueError:
            raise SchemaError(f"{path}.direction",
                              f"unknown compass point {raw['direction']!r}") from None
    try:
        value = check_value(condition, Value(micros, direction))
    except ForecastError as exc:
        raise SchemaError(path, str(exc)) from None
    return AssertionalMap(condition, location, valid_at, value)
