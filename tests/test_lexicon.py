import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import LexiconError, SchemaError
from fusecast.lexicon import (
    DEFAULT_LEXICON,
    DIRECTION_PHRASES,
    VOCABULARY,
    _check_bands,
    classify,
    load_lexicon,
)
from fusecast.model import Compass, Condition, Value

M = 1_000_000  # one unit in millionths


def term(condition, magnitude, direction=None):
    """The term for a magnitude in whole units, or an exact Fraction of them."""
    return classify(condition, Value(int(magnitude * M), direction))


class TestAnchors:
    """The six classifications the bulletin fixtures depend on."""

    def test_mostly_cloudy_78(self):
        assert term(Condition.CLOUDINESS, 78) == "Mostly Cloudy"

    def test_partly_cloudy_38(self):
        assert term(Condition.CLOUDINESS, 38) == "Partly Cloudy"

    def test_light_winds_5_and_6(self):
        assert term(Condition.WIND, 5, Compass.N) == "Light Winds"
        assert term(Condition.WIND, 6, Compass.NE) == "Light Winds"

    def test_sea_slight_65(self):
        assert term(Condition.SEA, 65) == "Slight"

    def test_sea_calm_20(self):
        assert term(Condition.SEA, 20) == "Calm"

    def test_heavy_rains_21(self):
        assert term(Condition.RAIN, 21) == "Heavy Rains"


class TestBoundaries:
    def test_clear_skies_at_zero(self):
        assert term(Condition.CLOUDINESS, 0) == "Clear or Sunny Skies"

    def test_overcast_only_at_hundred(self):
        assert term(Condition.CLOUDINESS, 100) == "Overcast"
        assert term(Condition.CLOUDINESS, Fraction("99.5")) == "Cloudy"

    def test_cloudy_at_90(self):
        assert term(Condition.CLOUDINESS, 90) == "Cloudy"

    def test_rain_zero_is_dry(self):
        assert term(Condition.RAIN, 0) == "No precipitation"
        assert term(Condition.RAIN, Fraction(1, 2)) == "Very Light Rains"

    def test_moderate_rain_14(self):
        assert term(Condition.RAIN, 14) == "Moderate Rains"

    def test_moderate_winds_15(self):
        assert term(Condition.WIND, 15, Compass.NE) == "Moderate Winds"

    def test_sea_moderate_190(self):
        assert term(Condition.SEA, 190) == "Moderate"

    def test_unconfigured_condition(self):
        with pytest.raises(LexiconError):
            term(Condition.TEMPERATURE, 20)
        with pytest.raises(LexiconError):
            term(Condition.SNOW, 5)


def test_default_bands_pass_the_document_check():
    """Importing the module checks no table, so the defaults are checked here
    as a document's bands are, and each spells its vocabulary in order."""
    for condition, bands in DEFAULT_LEXICON.items():
        _check_bands(condition, bands)
        assert tuple(term for _, term in bands) == VOCABULARY[condition]


class TestDirections:
    def test_paper_phrases(self):
        assert DIRECTION_PHRASES[Compass.NE] == "from North East"
        assert DIRECTION_PHRASES[Compass.N] == "from North"

    def test_all_eight_points(self):
        phrases = [DIRECTION_PHRASES[p] for p in Compass]
        assert phrases == [
            "from North", "from North East", "from East", "from South East",
            "from South", "from South West", "from West", "from North West",
        ]


class TestInvariants:
    @given(st.sampled_from([Condition.CLOUDINESS, Condition.WIND,
                            Condition.SEA, Condition.RAIN]),
           st.integers(0, 100), st.integers(0, 100))
    def test_monotone_in_magnitude(self, condition, m1, m2):
        lo, hi = sorted((m1, m2))
        bands = [t for _, t in DEFAULT_LEXICON[condition]]
        direction = Compass.N if condition is Condition.WIND else None
        t_lo = term(condition, lo, direction)
        t_hi = term(condition, hi, direction)
        assert bands.index(t_lo) <= bands.index(t_hi)

    @given(st.sampled_from([Condition.CLOUDINESS, Condition.WIND,
                            Condition.SEA, Condition.RAIN]),
           st.integers(0, 100))
    def test_terms_come_from_the_vocabulary(self, condition, magnitude):
        direction = Compass.N if condition is Condition.WIND else None
        assert term(condition, magnitude, direction) in VOCABULARY[condition]


def _linear_classify(bands, magnitude):
    """The band scan classify replaced: the first half-open [lo, hi) band
    holding the magnitude, with a leading (0, term) band for exactly 0."""
    lo = 0
    for i, (upper, term) in enumerate(bands):
        if upper is None:
            return term
        if i == 0 and upper == 0:
            if magnitude == 0:
                return term
            continue
        if lo <= magnitude < upper:
            return term
        lo = upper
    return bands[-1][1]


_OVERRIDE = load_lexicon(json.dumps({
    "cloudiness": [[0.5, "Clear or Sunny Skies"], [50.25, "Partly Cloudy"], [100, "Cloudy"]],
    "rain": [[0, "No precipitation"], [0.000001, "Very Light Rains"], [None, "Heavy Rains"]],
    "snow": [[10, "Snow flurry"], [None, "Snowstorm"]],
}).encode())


@pytest.mark.parametrize("lexicon", [DEFAULT_LEXICON, _OVERRIDE], ids=["default", "override"])
def test_bisect_equals_the_linear_scan(lexicon):
    """At 0, 100, every bound and one millionth either side of it."""
    for condition, bands in lexicon.items():
        points = {0, 100 * 10**6}
        for upper, _ in bands:
            if upper is not None:
                points.update(p for p in (upper - 1, upper, upper + 1) if p >= 0)
        direction = Compass.N if condition is Condition.WIND else None
        for micros in sorted(points):
            value = Value(micros, direction)
            assert classify(condition, value, lexicon) == _linear_classify(bands, micros), \
                (condition, micros)


class TestOverrides:
    def test_override_one_condition(self):
        table = load_lexicon(json.dumps({
            "sea": [[100, "Calm"], [None, "Rough"]],
        }).encode())
        assert classify(Condition.SEA, Value(65 * M), table) == "Calm"
        # untouched conditions keep their defaults
        assert classify(Condition.CLOUDINESS,
                        Value(78 * M), table) == "Mostly Cloudy"

    def test_snow_usable_once_configured(self):
        table = load_lexicon(json.dumps({
            "snow": [[10, "Snow flurry"], [None, "Snowstorm"]],
        }).encode())
        assert classify(Condition.SNOW, Value(3 * M), table) == "Snow flurry"

    def test_terms_outside_vocabulary_rejected(self):
        with pytest.raises(SchemaError) as err:
            load_lexicon(b'{"sea": [[null, "Choppy"]]}')
        assert err.value.path == "sea[0]"

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(SchemaError) as err:
            load_lexicon(b'{"sea": [[100, "Calm"], [50, "Slight"], [null, "Rough"]]}')
        assert str(err.value) == "sea[1]: band bounds must increase"

    @pytest.mark.parametrize("bound", ["1e5000", "1e-5000", "0.1234567", '"50"', "true"])
    def test_bound_outside_the_number_bounds_rejected(self, bound):
        with pytest.raises(SchemaError) as err:
            load_lexicon(f'{{"sea": [[{bound}, "Calm"], [null, "Rough"]]}}'.encode())
        assert err.value.path == "sea[0]"

    def test_uncovered_range_rejected(self):
        with pytest.raises(SchemaError) as err:
            load_lexicon(b'{"sea": [[100, "Calm"]]}')
        assert err.value.path == "sea"

    @pytest.mark.parametrize("bands, path, message", [
        ("[]", "sea", "empty band list"),
        ('[[null, "Calm"], [null, "Rough"]]', "sea[0]", "unbounded band must come last"),
        ('[[-5, "Calm"], [null, "Rough"]]', "sea[0]", "bad band bound -5"),
        ('[[50, "Calm"], [0, "Slight"], [null, "Rough"]]', "sea[1]", "band bounds must increase"),
        ('[[0, "Calm"], [0, "Slight"], [null, "Rough"]]', "sea[1]", "band bounds must increase"),
        ('[[0, "Calm"], [null, "Choppy"]]', "sea[1]", "term 'Choppy' is not in the vocabulary"),
    ], ids=["empty", "unbounded-not-last", "negative", "falls-to-zero", "zero-twice",
            "second-term"])
    def test_band_fault_named_at_its_path(self, bands, path, message):
        """A band's own fault at `<key>[i]`, a fault of the whole list at `<key>`."""
        with pytest.raises(SchemaError) as err:
            load_lexicon(f'{{"sea": {bands}}}'.encode())
        assert (err.value.path, err.value.message) == (path, message)

    def test_percent_tables_may_stop_at_100(self):
        table = load_lexicon(json.dumps({
            "cloudiness": [[50, "Clear or Sunny Skies"], [100, "Cloudy"]],
        }).encode())
        assert classify(Condition.CLOUDINESS,
                        Value(100 * M), table) == "Cloudy"
