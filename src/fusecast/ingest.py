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

from .errors import SchemaError
from .inputs import MAX_HORIZON, check_at, check_keys, exact_number, read_json_object
from .model import (
    AssertionalMap,
    Compass,
    Label,
    LabeledAssertionalMap,
    OBSERVATION_METHOD,
    TimeRef,
    Value,
    check_value,
    condition_named,
    horizon_index,
    parse_timeref,
    place,
)
from .theory import atom_head, check_method_id

#: A set, so that checking an entry's key is one hash probe.
_ENTRY_KEYS = frozenset(("condition", "location", "valid_at", "magnitude", "direction"))


def parse_source_map(data: bytes, observation: bool = False) -> list[LabeledAssertionalMap]:
    """One labeled assertion per entry, in document order. Raises SchemaError
    at the first problem: an unknown top-level key, then `method` (which an
    `observation` map must spell OBSERVATION_METHOD, entries or none),
    `generated_at`, `entries`, then each entry in turn."""
    doc = read_json_object(data)
    check_keys(doc, ("method", "generated_at", "entries"))
    method = doc.get("method")
    check_at("", "method", check_method_id, method, within=doc)
    if observation and method != OBSERVATION_METHOD:
        raise SchemaError("method", f"must be {OBSERVATION_METHOD!r} in an observation "
                                    f"map, not {method!r}")
    label = Label(method, check_at("", "generated_at", parse_timeref,
                                   doc.get("generated_at"), within=doc))
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
        check_at("", "generated_at", place, lams[0].label.generated_at, now)
    slots: dict[tuple, int] = {}
    for i, lam in enumerate(lams):
        m = lam.map
        horizon = check_at(f"entries[{i}]", "valid_at", horizon_index, m.valid_at, now)
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
    check_keys(raw, _ENTRY_KEYS, path)
    condition = check_at(path, "condition", condition_named, raw.get("condition"),
                         within=raw)
    location = raw.get("location")
    check_at(path, "location", atom_head, condition, location, within=raw)

    text = raw.get("valid_at")
    valid_at = times.get(text) if isinstance(text, str) else None
    if valid_at is None:
        valid_at = times[text] = check_at(path, "valid_at", parse_timeref, text, within=raw)

    # exact_number raises at the path it is given: "" leaves check_at to name it.
    micros = check_at(path, "magnitude", exact_number, raw.get("magnitude"), "", within=raw)
    direction = None
    if "direction" in raw:
        name = raw["direction"]
        if not isinstance(name, str):
            raise SchemaError(f"{path}.direction", "must be a compass point")
        try:
            direction = Compass(name)
        except ValueError:
            raise SchemaError(f"{path}.direction", f"unknown compass point {name!r}") from None
    value = check_at(path, None, check_value, condition, Value(micros, direction))
    return AssertionalMap(condition, location, valid_at, value)
