"""Core vocabulary for quantitative weather assertions.

Layers (pure data, no I/O):
  Condition / Value       a measured weather quantity in the condition's unit
  TimeRef                 absolute UTC instant or symbolic day horizon h0, h1, ...
  AssertionalMap          one ground assertion: condition @ location @ time = value
  Label                   the contextualised method that produced a map
  LabeledAssertionalMap   an assertional map plus its label

Every record is a typing.NamedTuple, so it is immutable and is built, hashed
and compared by tuple code. Each has one constructor, which checks nothing
but TimeRef's shape; input is checked where it enters. Magnitudes are ints
in millionths: every number that enters has at most six places
(inputs.exact_number), so they are exact and survive a round trip through
the textual theory encoding.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import NamedTuple, Optional

from .errors import ForecastError
from .inputs import MILLION, parse_horizon

#: Reserved method id for ground-truth observations.
OBSERVATION_METHOD = "O"

#: The grammar of method ids and location names, which atoms embed.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


class Condition(Enum):
    """Weather condition kinds, each with a fixed measurement unit."""

    __hash__ = object.__hash__  # members compare by identity; hash in C

    TEMPERATURE = "temperature"
    PRESSURE = "pressure"
    HUMIDITY = "humidity"
    RAIN = "rain"
    SNOW = "snow"
    WIND = "wind"
    VISIBILITY = "visibility"
    CLOUDINESS = "cloudiness"
    SEA = "sea"

    @property
    def is_percent(self) -> bool:
        return self in (Condition.HUMIDITY, Condition.CLOUDINESS)


_CONDITIONS = {c.value: c for c in Condition}


def condition_named(name: object) -> Condition:
    """The condition kind a document names: refused as a non-string, or as
    a string no kind spells."""
    if not isinstance(name, str):
        raise ForecastError("must be a condition name")
    condition = _CONDITIONS.get(name)
    if condition is None:
        raise ForecastError(f"unknown condition kind {name!r}")
    return condition


class Compass(Enum):
    """Eight-point compass rose for wind direction."""

    __hash__ = object.__hash__

    N = "N"
    NE = "NE"
    E = "E"
    SE = "SE"
    S = "S"
    SW = "SW"
    W = "W"
    NW = "NW"


def decimal_str(micros: int) -> str:
    """Exact decimal spelling of a number of millionths, without trailing zeros."""
    whole, places = divmod(abs(micros), MILLION)
    sign = "-" if micros < 0 else ""
    return f"{sign}{whole}.{places:06d}".rstrip("0") if places else f"{sign}{whole}"


class Value(NamedTuple):
    """A measured value: its non-negative magnitude in millionths of the
    condition's unit, plus, for wind only, a compass direction."""

    micros: int
    direction: Optional[Compass] = None

    @property
    def magnitude(self):
        """The exact magnitude as a Fraction; built when read."""
        from fractions import Fraction  # no command reads it; start-up skips the import
        return Fraction(self.micros, MILLION)

    def __str__(self) -> str:
        mag = decimal_str(self.micros)
        return f"{self.direction.value}{mag}" if self.direction else mag


def check_value(condition: Condition, value: Value) -> Value:
    """Enforce a value's invariants under its condition; returns the value."""
    if value.micros < 0:
        raise ForecastError(f"magnitude must be non-negative, got {decimal_str(value.micros)}")
    if (value.direction is not None) != (condition is Condition.WIND):
        if condition is Condition.WIND:
            raise ForecastError("wind values require a compass direction")
        raise ForecastError(f"{condition.value} values must not carry a direction")
    if condition.is_percent and value.micros > 100 * MILLION:
        raise ForecastError(
            f"{condition.value} is a percentage; magnitude {decimal_str(value.micros)} > 100"
        )
    return value


class _TimeRef(NamedTuple):
    instant: Optional[datetime]
    horizon: Optional[int]


class TimeRef(_TimeRef):
    """Either an absolute UTC instant or a symbolic horizon h_k (k days from now)."""

    __slots__ = ()

    def __new__(cls, instant: Optional[datetime] = None, horizon: Optional[int] = None):
        if (instant is None) == (horizon is None):
            raise ForecastError("TimeRef needs exactly one of instant/horizon")
        if horizon is not None and horizon < 0:
            raise ForecastError("symbolic horizons are non-negative")
        if instant is not None:
            if instant.tzinfo is None:
                instant = instant.replace(tzinfo=timezone.utc)
            else:
                instant = instant.astimezone(timezone.utc)
            instant = instant.replace(microsecond=0)
        return super().__new__(cls, instant, horizon)

    @property
    def is_symbolic(self) -> bool:
        return self.horizon is not None

    def __str__(self) -> str:
        if self.is_symbolic:
            return f"h{self.horizon}"
        return self.instant.isoformat().replace("+00:00", "Z")


#: The ISO-8601 subset every supported Python reads alike: a date, then
#: optionally a time, then, after a time only, "Z" or a UTC offset.
_ISO_RE = re.compile(
    r"(?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2})"
    r"(?:(?P<time>T[0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{1,6})?)?)"
    r"(?P<zone>Z|[+-][0-9]{2}:[0-9]{2})?)?\Z")


def parse_timeref(text: object) -> TimeRef:
    """Parse "h<k>" (bounded by parse_horizon) or an ISO-8601 timestamp in
    _ISO_RE's grammar, whose fraction of a second TimeRef drops anyway; a
    non-string is refused for its type."""
    if not isinstance(text, str):
        raise ForecastError("must be a time reference")
    text = text.strip()
    if text.startswith("h"):
        return TimeRef(horizon=parse_horizon(text))
    m = _ISO_RE.match(text)
    if m is not None:
        time = (m["time"] or "").partition(".")[0]
        zone = "+00:00" if m["zone"] == "Z" else m["zone"] or ""
        try:
            return TimeRef(instant=datetime.fromisoformat(m["date"] + time + zone))
        except (ValueError, OverflowError):
            pass
    raise ForecastError(f"unparseable time reference: {text!r}")


def place(t: TimeRef, now: TimeRef) -> TimeRef:
    """t on `now`'s axis: a reference of now's kind unchanged, and h_k under
    an absolute `now` the instant k days after it. An absolute t under a
    symbolic `now` cannot be placed, nor a day past the last representable
    date."""
    if t.is_symbolic == now.is_symbolic:
        return t
    if now.is_symbolic:
        raise ForecastError("cannot place an absolute time reference against a symbolic 'now'")
    try:
        return TimeRef(instant=now.instant + timedelta(days=t.horizon))
    except OverflowError:
        raise ForecastError(f"{now} + {t} is past the last representable date") from None


def horizon_index(t: TimeRef, now: TimeRef) -> int:
    """Day offset of t from `now`, once placed on now's axis: h_k lies k - j
    days from a symbolic now h_j, and instants the calendar-day difference
    apart (so now+36h at 14:05 lands on day 2, at 09:30 on day 1)."""
    t = place(t, now)
    if t.is_symbolic:
        return t.horizon - now.horizon
    return (t.instant.date() - now.instant.date()).days


class AssertionalMap(NamedTuple):
    """One ground quantitative assertion: condition @ location @ valid_at = value."""

    condition: Condition
    location: str
    valid_at: TimeRef
    value: Value


class Label(NamedTuple):
    """The contextualised method: which model produced the map, and when."""

    method: str
    generated_at: TimeRef


class LabeledAssertionalMap(NamedTuple):
    """An assertional map tagged with the label that produced it."""

    label: Label
    map: AssertionalMap

    @property
    def is_observation(self) -> bool:
        return self.label.method == OBSERVATION_METHOD


def conflicts_with(a: AssertionalMap, b: AssertionalMap) -> bool:
    """Two maps conflict iff they cover the same slot but disagree on the value.

    Symmetric and irreflexive by construction.
    """
    return (
        a.condition is b.condition
        and a.location == b.location
        and a.valid_at == b.valid_at
        and a.value != b.value
    )
