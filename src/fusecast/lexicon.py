"""Sharp forecasting: numeric values to the controlled forecast vocabulary.

Bands are half-open [lo, hi) over a condition's unit, contiguous from 0, with
an unbounded last band; a leading (0, term) band is the degenerate "exactly
zero" case (used by rain: 0 mm is "No precipitation", anything above starts
the rainy bands). Wind bands follow the Beaufort groupings, sea state the
Douglas scale; sky cover and rain rates use customary synoptic breakpoints.

Conditions without default bands (snow, visibility, and the non-worded
temperature/pressure/humidity) must be configured explicitly before use.
A lexicon is a mapping from each condition to its bands. `load_lexicon`
checks each condition's bands as it reads them, so an error names the
document's own path (`sea[1]`, or `sea` for the whole list); a mapping built
in code is not checked.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .errors import LexiconError, SchemaError
from .inputs import MILLION, exact_number, read_json_object
from .model import Compass, Condition, Value, decimal_str

#: (exclusive upper bound in millionths, None = ∞), term
Band = tuple[Optional[int], str]
#: Bands per condition.
Lexicon = Mapping[Condition, tuple[Band, ...]]

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

#: Exclusive upper bounds in whole units, one per VOCABULARY term; None = ∞.
_BOUNDS: dict[Condition, tuple[Optional[int], ...]] = {
    Condition.CLOUDINESS: (10, 40, 80, 100, None),  # "Overcast" is exactly 100 %
    Condition.WIND: (11, 17, 22, 28, 34, 41, 48, None),  # knots
    Condition.SEA: (50, 125, 250, 400, 600, 900, 1400, None),  # cm wave height
    Condition.RAIN: (0, 2, 10, 20, None),  # mm/day
}
DEFAULT_LEXICON: dict[Condition, tuple[Band, ...]] = {
    condition: tuple((None if upper is None else upper * MILLION, term)
                     for upper, term in zip(bounds, VOCABULARY[condition]))
    for condition, bounds in _BOUNDS.items()
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


def _check_bands(condition: Condition, bands: Sequence[Band]) -> None:
    """Refuse a band list at `<condition>[i]` for a band's own fault, or at
    `<condition>` for a fault of the whole list."""
    key = condition.value
    if not bands:
        raise SchemaError(key, "empty band list")
    vocabulary = VOCABULARY.get(condition)
    prev = None
    for i, (upper, term) in enumerate(bands):
        path = f"{key}[{i}]"
        if vocabulary is not None and term not in vocabulary:
            raise SchemaError(path, f"term {term!r} is not in the vocabulary")
        if upper is None:
            if i != len(bands) - 1:
                raise SchemaError(path, "unbounded band must come last")
            continue
        degenerate_zero = i == 0 and upper == 0
        if prev is not None and upper <= prev:
            raise SchemaError(path, "band bounds must increase")
        if upper < 0 or (upper == 0 and not degenerate_zero):
            raise SchemaError(path, f"bad band bound {decimal_str(upper)}")
        prev = upper
    last_upper = bands[-1][0]
    if last_upper is not None and not (condition.is_percent and last_upper >= 100 * MILLION):
        raise SchemaError(key, "bands must cover the whole range "
                               "(end with null, or reach 100 for percent conditions)")


def classify(condition: Condition, value: Value, lexicon: Lexicon = DEFAULT_LEXICON) -> str:
    """The term of the band containing the value's magnitude: the first band
    whose upper bound is above it, where a leading (0, term) band holds
    exactly 0. Percent bands that end at 100 give 100 their last term."""
    bands = lexicon.get(condition)
    if bands is None:
        raise LexiconError(
            f"no bands configured for {condition.value}; "
            "supply a lexicon override to classify it")
    micros = value.micros
    for upper, term in bands:
        if upper is None or micros < upper or micros == upper == 0:
            return term
    return bands[-1][1]


def load_lexicon(data: bytes) -> Lexicon:
    """Defaults overridden per condition from a JSON document, each
    condition's bands checked where they are read:
    {"cloudiness": [[10, "Clear or Sunny Skies"], ..., [null, "Overcast"]]}"""
    doc = read_json_object(data)
    bands = dict(DEFAULT_LEXICON)
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
        _check_bands(condition, parsed)
        bands[condition] = tuple(parsed)
    return bands

