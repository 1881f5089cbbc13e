"""Sharp forecasting: numeric values to the controlled forecast vocabulary.

Bands are half-open [lo, hi) over a condition's unit, contiguous from 0, with
an unbounded last band; a leading (0, term) band is the degenerate "exactly
zero" case (used by rain: 0 mm is "No precipitation", anything above starts
the rainy bands). Wind bands follow the Beaufort groupings, sea state the
Douglas scale; sky cover and rain rates use customary synoptic breakpoints.

Conditions without default bands (snow, visibility, and the non-worded
temperature/pressure/humidity) must be configured explicitly before use.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import LexiconError, SchemaError
from .inputs import MILLION, exact_number, read_json_object
from .model import Compass, Condition, Value, decimal_str

#: (exclusive upper bound in millionths, None = ∞), term
Band = tuple[Optional[int], str]

VOCABULARY: dict[Condition, tuple[str, ...]] = {
    Condition.CLOUDINESS: (
        "Clear or Sunny Skies", "Partly Cloudy", "Mostly Cloudy", "Cloudy", "Overcast",
    ),
    Condition.WIND: (
        "Light Winds", "Moderate Winds", "Fresh Winds", "Near Gale",
        "Gale", "Strong Gale", "Storm", "Violent Storm",
    ),
    Condition.SEA: (
        "Calm", "Slight", "Moderate", "Rough", "Very Rough",
        "High", "Very High", "Phenomenal",
    ),
    Condition.RAIN: (
        "No precipitation", "Very Light Rains", "Light Rains",
        "Moderate Rains", "Heavy Rains",
    ),
    Condition.SNOW: (
        "Blizzard", "Snowstorm", "Snow flurry", "Snow squall",
        "Snowburst", "Blowing snow", "Drifting snow",
    ),
    Condition.VISIBILITY: ("Clean", "Misty", "Foggy", "Hazy"),
}

_F = MILLION.__mul__  # whole units to millionths
DEFAULT_BANDS: dict[Condition, tuple[Band, ...]] = {
    Condition.CLOUDINESS: (
        (_F(10), "Clear or Sunny Skies"),
        (_F(40), "Partly Cloudy"),
        (_F(80), "Mostly Cloudy"),
        (_F(100), "Cloudy"),
        (None, "Overcast"),  # only 100 % exactly, given the percent bound
    ),
    Condition.WIND: (  # knots
        (_F(11), "Light Winds"),
        (_F(17), "Moderate Winds"),
        (_F(22), "Fresh Winds"),
        (_F(28), "Near Gale"),
        (_F(34), "Gale"),
        (_F(41), "Strong Gale"),
        (_F(48), "Storm"),
        (None, "Violent Storm"),
    ),
    Condition.SEA: (  # cm wave height
        (_F(50), "Calm"),
        (_F(125), "Slight"),
        (_F(250), "Moderate"),
        (_F(400), "Rough"),
        (_F(600), "Very Rough"),
        (_F(900), "High"),
        (_F(1400), "Very High"),
        (None, "Phenomenal"),
    ),
    Condition.RAIN: (  # mm/day
        (_F(0), "No precipitation"),
        (_F(2), "Very Light Rains"),
        (_F(10), "Light Rains"),
        (_F(20), "Moderate Rains"),
        (None, "Heavy Rains"),
    ),
}

DIRECTION_PHRASES: dict[Compass, str] = {
    Compass.N: "from North",
    Compass.NE: "from North East",
    Compass.E: "from East",
    Compass.SE: "from South East",
    Compass.S: "from South",
    Compass.SW: "from South West",
    Compass.W: "from West",
    Compass.NW: "from North West",
}


@dataclass(frozen=True, slots=True)
class LexiconTable:
    bands: Mapping[Condition, tuple[Band, ...]] = field(
        default_factory=lambda: dict(DEFAULT_BANDS))
    #: condition -> (bounds, terms) for a bisect, built once: a leading (0,
    #: term) band holds exactly 0, which is [0, 1) in millionths, and a table
    #: without an unbounded band ends with its last term again.
    _search: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bands", dict(self.bands))
        search = {}
        for condition, bands in self.bands.items():
            _check_bands(condition, bands)
            bounds = [1 if i == 0 and upper == 0 else upper
                      for i, (upper, _) in enumerate(bands) if upper is not None]
            terms = [term for _, term in bands]
            if bands[-1][0] is not None:
                terms.append(terms[-1])
            search[condition] = (bounds, terms)
        object.__setattr__(self, "_search", search)


def _check_bands(condition: Condition, bands: Sequence[Band]) -> None:
    if not bands:
        raise LexiconError(f"{condition.value}: empty band list")
    vocabulary = VOCABULARY.get(condition)
    prev = None
    for i, (upper, term) in enumerate(bands):
        if vocabulary is not None and term not in vocabulary:
            raise LexiconError(
                f"{condition.value}: term {term!r} is not in the vocabulary")
        if upper is None:
            if i != len(bands) - 1:
                raise LexiconError(
                    f"{condition.value}: unbounded band must come last")
            continue
        degenerate_zero = i == 0 and upper == 0
        if prev is not None and upper <= prev:
            raise LexiconError(f"{condition.value}: band bounds must increase")
        if upper < 0 or (upper == 0 and not degenerate_zero):
            raise LexiconError(f"{condition.value}: bad band bound {decimal_str(upper)}")
        prev = upper
    last_upper = bands[-1][0]
    if last_upper is not None and not (condition.is_percent and last_upper >= 100 * MILLION):
        raise LexiconError(
            f"{condition.value}: bands must cover the whole range "
            "(end with null, or reach 100 for percent conditions)")


DEFAULT_LEXICON = LexiconTable()


def classify(condition: Condition, value: Value,
             table: LexiconTable = DEFAULT_LEXICON) -> str:
    """The term of the band containing the value's magnitude."""
    search = table._search.get(condition)
    if search is None:
        raise LexiconError(
            f"no bands configured for {condition.value}; "
            "supply a lexicon override to classify it")
    bounds, terms = search
    return terms[bisect_right(bounds, value.micros)]


def direction_name(point: Compass) -> str:
    return DIRECTION_PHRASES[point]


def load_lexicon(data: bytes) -> LexiconTable:
    """Defaults overridden per condition from a JSON document:
    {"cloudiness": [[10, "Clear or Sunny Skies"], ..., [null, "Overcast"]]}"""
    doc = read_json_object(data)
    bands = dict(DEFAULT_BANDS)
    for key, raw_bands in doc.items():
        try:
            condition = Condition(key)
        except ValueError:
            raise SchemaError(key, f"unknown condition kind {key!r}") from None
        if not isinstance(raw_bands, list):
            raise SchemaError(key, "must be a list of [bound, term] pairs")
        parsed: list[Band] = []
        for i, pair in enumerate(raw_bands):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[1], str)):
                raise SchemaError(f"{key}[{i}]", "expected [bound, term]")
            bound, term = pair
            if bound is not None:
                bound = exact_number(bound, f"{key}[{i}]")
            parsed.append((bound, term))
        bands[condition] = tuple(parsed)
    try:
        return LexiconTable(bands=bands)
    except LexiconError as exc:
        raise SchemaError("", str(exc)) from exc

