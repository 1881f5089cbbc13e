"""Parse source forecast maps and observation maps into labeled assertions.

One document = one method + one generation time, mirroring the label granularity:

    {"method": "ECMWF",
     "generated_at": "<ISO-8601 | h0..hN>",
     "entries": [{"condition": "cloudiness", "location": "North",
                  "valid_at": "h1", "magnitude": 75},
                 {"condition": "wind", "location": "North",
                  "valid_at": "h1", "magnitude": 5, "direction": "NE"}, ...]}

Every entry is checked here, where it enters; a location is its name.
parse_source_map is the one reader, for every command, `validate` included:
it stops at a document's first problem with a SchemaError at its path.
check_times then places the document's time references once `--now` is
known.
"""

from __future__ import annotations

from .errors import ForecastError, SchemaError
from .inputs import MAX_HORIZON, exact_number, read_json_object
from .model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    NAME_RE,
    OBSERVATION_METHOD,
    TimeRef,
    Value,
    check_value,
    horizon_index,
    parse_timeref,
    place,
)
from .theory import atom_head, check_method_id

_CONDITIONS = {c.value: c for c in Condition}


def parse_source_map(data: bytes, observation: bool = False) -> list[LabeledAssertionalMap]:
    """One labeled assertion per entry, in document order. Raises SchemaError
    at the first problem: an unknown top-level key, then `method` (which an
    `observation` map must spell OBSERVATION_METHOD, entries or none),
    `generated_at`, `entries`, then each entry in turn."""
    doc = read_json_object(data)
    for key in doc:
        if key not in ("method", "generated_at", "entries"):
            raise SchemaError(key, "unknown key")
    method = doc.get("method")
    try:
        check_method_id(method)
    except ForecastError as exc:
        raise SchemaError("method", str(exc)) from None
    if observation and method != OBSERVATION_METHOD:
        raise SchemaError("method", f"must be {OBSERVATION_METHOD!r} in an observation "
                                    f"map, not {method!r}")
    try:
        label = Label(method, parse_timeref(str(doc.get("generated_at", ""))))
    except ForecastError as exc:
        raise SchemaError("generated_at", str(exc)) from None
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        raise SchemaError("entries", "must be a list")

    lams: list[LabeledAssertionalMap] = []
    times: dict[str, TimeRef] = {}
    seen: set[tuple] = set()
    for i, raw in enumerate(raw_entries):
        path = f"entries[{i}]"
        entry = _parse_entry(raw, path, times)
        key = (entry.condition, entry.location, entry.valid_at)
        if key in seen:
            raise SchemaError(path, f"duplicate entry for {entry.condition.value} @ "
                                    f"{entry.location} @ {entry.valid_at}")
        seen.add(key)
        lams.append(LabeledAssertionalMap(label, entry))
    return lams


def check_times(lams: list[LabeledAssertionalMap], now: TimeRef) -> list[LabeledAssertionalMap]:
    """One document's parse_source_map result, returned unchanged once every
    time reference can be placed on `now`'s axis (model.place), in entries
    sift would drop too. Else a SchemaError at the first that cannot: an
    absolute time under a symbolic `now`, a date past the last representable
    one, a validity more than MAX_HORIZON days ahead, or a second entry on
    one slot (one condition at one location on one day from `now` on). The
    generation is placed once, and each entry's validity once."""
    if lams:
        try:
            place(lams[0].label.generated_at, now)
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


def _parse_entry(raw, path: str, times: dict[str, TimeRef]) -> AssertionalMap:
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
