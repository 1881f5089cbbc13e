"""Core vocabulary for quantitative weather assertions.

Layers (pure data, no I/O):
  Condition / Value       a measured weather quantity in the condition's unit
  TimeRef                 absolute UTC instant or symbolic day horizon h0, h1, ...
  Location                a named point
  AssertionalMap          one ground assertion: condition @ location @ time = value
  Label                   the contextualised method that produced a map
  LabeledAssertionalMap   an assertional map plus its label

All types are immutable and slotted. Magnitudes are ints in millionths: every
number that enters has at most six places (inputs.exact_number), so they are
exact and survive a round trip through the textual theory encoding unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .errors import ForecastError
from .inputs import MILLION, parse_horizon

#: Reserved method id for ground-truth observations.
OBSERVATION_METHOD = "O"

#: The grammar of method ids and location names, which atoms embed.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

Rational = Union[int, str, Fraction]


class Condition(Enum):
    """Weather condition kinds, each with a fixed measurement unit."""

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


class Compass(Enum):
    """Eight-point compass rose for wind direction."""

    N = "N"
    NE = "NE"
    E = "E"
    SE = "SE"
    S = "S"
    SW = "SW"
    W = "W"
    NW = "NW"


def to_micros(x: Rational, field: str) -> int:
    """x in millionths. x is an int, a decimal string or a Fraction, and a
    whole number of millionths; anything else is an error naming `field`."""
    if type(x) is int:
        return x * MILLION
    if not isinstance(x, (str, Fraction)):
        raise ForecastError(
            f"{field} must be an int, Fraction or decimal string, not {type(x).__name__}")
    try:
        micros = Fraction(x) * MILLION
    except (ValueError, ZeroDivisionError) as exc:
        raise ForecastError(f"bad {field}: {x!r}") from exc
    if micros.denominator != 1:
        raise ForecastError(f"{field} {x} is not a whole number of millionths")
    return micros.numerator


def set_fields(obj, *values):
    """Fill the fields of a frozen, slotted dataclass instance in order,
    running no checks; returns the instance."""
    for name, value in zip(obj.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def decimal_str(micros: int) -> str:
    """Exact decimal spelling of a number of millionths, without trailing zeros."""
    whole, places = divmod(abs(micros), MILLION)
    sign = "-" if micros < 0 else ""
    return f"{sign}{whole}.{places:06d}".rstrip("0") if places else f"{sign}{whole}"


@dataclass(frozen=True, slots=True, init=False)
class Value:
    """A measured value: its magnitude in millionths of the condition's unit,
    plus, for wind only, a compass direction."""

    micros: int
    direction: Optional[Compass] = None

    def __init__(self, magnitude: Rational, direction: Optional[Compass] = None):
        micros = to_micros(magnitude, "magnitude")
        if micros < 0:
            raise ForecastError(f"magnitude must be non-negative, got {magnitude}")
        set_fields(self, micros, direction)

    @classmethod
    def of(cls, micros: int, direction: Optional[Compass] = None) -> "Value":
        """A value from a magnitude already checked and in millionths."""
        value = object.__new__(cls)
        object.__setattr__(value, "micros", micros)
        object.__setattr__(value, "direction", direction)
        return value

    @property
    def magnitude(self) -> Fraction:
        """The exact magnitude; built when read."""
        return Fraction(self.micros, MILLION)

    def __str__(self) -> str:
        mag = decimal_str(self.micros)
        return f"{self.direction.value}{mag}" if self.direction else mag


def check_value(condition: Condition, value: Value) -> Value:
    """Enforce the condition-specific value invariants; returns the value."""
    if (value.direction is not None) != (condition is Condition.WIND):
        if condition is Condition.WIND:
            raise ForecastError("wind values require a compass direction")
        raise ForecastError(f"{condition.value} values must not carry a direction")
    if condition.is_percent and value.micros > 100 * MILLION:
        raise ForecastError(
            f"{condition.value} is a percentage; magnitude {decimal_str(value.micros)} > 100"
        )
    return value


def make_value(
    condition: Condition, magnitude: Rational, direction: Optional[Compass] = None
) -> Value:
    """Build a Value and validate it against the condition in one step."""
    return check_value(condition, Value(magnitude, direction))


@dataclass(frozen=True, slots=True)
class TimeRef:
    """Either an absolute UTC instant or a symbolic horizon h_k (k days from now)."""

    instant: Optional[datetime] = None
    horizon: Optional[int] = None

    def __post_init__(self):
        if (self.instant is None) == (self.horizon is None):
            raise ForecastError("TimeRef needs exactly one of instant/horizon")
        if self.horizon is not None and self.horizon < 0:
            raise ForecastError("symbolic horizons are non-negative")
        if self.instant is not None:
            dt = self.instant
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            else:
                dt = dt.astimezone(timezone.utc)
            object.__setattr__(self, "instant", dt.replace(microsecond=0))

    @classmethod
    def absolute(cls, instant: datetime) -> "TimeRef":
        return cls(instant=instant)

    @classmethod
    def symbolic(cls, k: int) -> "TimeRef":
        return cls(horizon=k)

    @property
    def is_symbolic(self) -> bool:
        return self.horizon is not None

    def __str__(self) -> str:
        if self.is_symbolic:
            return f"h{self.horizon}"
        return self.instant.isoformat().replace("+00:00", "Z")


def parse_timeref(text: str) -> TimeRef:
    """Parse "h<k>" (bounded by parse_horizon) or an ISO-8601 timestamp."""
    text = text.strip()
    if text.startswith("h"):
        return TimeRef.symbolic(parse_horizon(text))
    try:
        return TimeRef.absolute(datetime.fromisoformat(text.replace("Z", "+00:00")))
    except (ValueError, OverflowError) as exc:
        raise ForecastError(f"unparseable time reference: {text!r}") from exc


def horizon_index(valid_at: TimeRef, now: TimeRef) -> int:
    """Day offset of valid_at relative to now.

    Symbolic valid_at returns its own k regardless of now; absolute pairs use
    the calendar-day difference (so now+36h at 14:05 lands on day 1). A
    symbolic `now` against an absolute valid_at is unresolvable.
    """
    if valid_at.is_symbolic:
        return valid_at.horizon
    if now.is_symbolic:
        raise ForecastError(
            "cannot compute a horizon for an absolute time against a symbolic 'now'"
        )
    return (valid_at.instant.date() - now.instant.date()).days


def resolve_instant(t: TimeRef, now: TimeRef) -> Union[datetime, int]:
    """Comparable key for a TimeRef: a UTC datetime, or a day index when the
    whole run is symbolic. Mixing absolute refs with a symbolic `now` fails."""
    if now.is_symbolic:
        if t.is_symbolic:
            return t.horizon
        raise ForecastError(
            "cannot order an absolute time reference against a symbolic 'now'"
        )
    if t.is_symbolic:
        try:
            return now.instant + timedelta(days=t.horizon)
        except OverflowError:
            raise ForecastError(f"{now} + {t} is past the last representable date") from None
    return t.instant


def is_future(t: TimeRef, now: TimeRef) -> bool:
    """True iff t lies strictly after now (symbolic now compares day indexes)."""
    ref = now.horizon if now.is_symbolic else now.instant
    return resolve_instant(t, now) > ref


@dataclass(frozen=True, slots=True)
class Location:
    """A named point; the name is embedded in atoms, so it follows NAME_RE."""

    name: str

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise ForecastError(
                f"location name {self.name!r} must match [A-Za-z][A-Za-z0-9]*"
            )

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class AssertionalMap:
    """One ground quantitative assertion: condition @ location @ valid_at = value."""

    condition: Condition
    location: Location
    valid_at: TimeRef
    value: Value

    def __post_init__(self):
        check_value(self.condition, self.value)


@dataclass(frozen=True, slots=True)
class Label:
    """The contextualised method: which model produced the map, and when."""

    method: str
    generated_at: TimeRef

    def __post_init__(self):
        if not self.method:
            raise ForecastError("label method must be non-empty")


@dataclass(frozen=True, slots=True)
class LabeledAssertionalMap:
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


def hindcast_days(valid_at: TimeRef, generated_at: TimeRef) -> Optional[int]:
    """How far valid_at sits from the generation instant, in days; None when
    the pair is not comparable (absolute valid_at under a symbolic label)."""
    if valid_at.is_symbolic and generated_at.is_symbolic:
        return valid_at.horizon - generated_at.horizon
    if valid_at.is_symbolic:
        return valid_at.horizon
    if generated_at.is_symbolic:
        return None
    return horizon_index(valid_at, generated_at)
