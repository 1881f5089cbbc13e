import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import ForecastError
from fusecast.kb import AccuracyRecord, KnowledgeBase
from fusecast.model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    Location,
    TimeRef,
    Value,
    conflicts_with,
    decimal_str,
    horizon_index,
    make_value,
    parse_timeref,
    resolve_instant,
)

H = TimeRef.symbolic


def am(condition, loc, horizon, magnitude, direction=None):
    return AssertionalMap(condition, Location(loc), H(horizon),
                         make_value(condition, magnitude, direction))


class TestValue:
    def test_percent_bound_enforced_at_construction(self):
        with pytest.raises(ForecastError):
            make_value(Condition.CLOUDINESS, 101)
        with pytest.raises(ForecastError):
            make_value(Condition.HUMIDITY, Fraction(201, 2))
        make_value(Condition.CLOUDINESS, 100)  # boundary ok

    def test_direction_iff_wind(self):
        with pytest.raises(ForecastError):
            make_value(Condition.WIND, 5)
        with pytest.raises(ForecastError):
            make_value(Condition.SEA, 50, Compass.N)
        v = make_value(Condition.WIND, 5, Compass.NE)
        assert v.direction is Compass.NE

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ForecastError):
            Value(Fraction(-1))

    def test_floats_are_refused(self):
        with pytest.raises(ForecastError):
            Value(0.5)

    @pytest.mark.parametrize("build, field", [
        (lambda x: Value(x), "magnitude"),
        (lambda x: AccuracyRecord("GFS", 1, x), "accuracy"),
        (lambda x: KnowledgeBase(min_accuracy=x), "min_accuracy"),
    ])
    @pytest.mark.parametrize("x", ["0.1234567", Fraction(1, 10**7), Fraction(1, 3)])
    def test_a_seventh_place_is_refused_with_the_field_named(self, build, field, x):
        with pytest.raises(ForecastError, match=f"^{field} "):
            build(x)

    def test_whole_millionths_are_accepted_in_any_spelling(self):
        assert Value("0.000001") == Value(Fraction(1, 10**6)) == Value.of(1)
        assert Value(17) == Value("17.000") == Value.of(17_000_000)

    def test_exact_decimal_rendering(self):
        assert decimal_str(90_000_000) == "90"
        assert decimal_str(500_000) == "0.5"
        assert decimal_str(12_250_000) == "12.25"
        assert decimal_str(-1) == "-0.000001"
        with pytest.raises(ForecastError):
            Value(Fraction(1, 3))


class TestTimeRef:
    def test_parse_symbolic_and_absolute(self):
        assert parse_timeref("h2") == H(2)
        t = parse_timeref("2026-08-08T14:05:00Z")
        assert not t.is_symbolic
        assert str(t) == "2026-08-08T14:05:00Z"

    def test_symbolic_horizons_stop_at_366(self):
        assert parse_timeref("h366") == H(366)
        for text in ("h367", "h" + "9" * 5000, "h-1", "hx"):
            with pytest.raises(ForecastError):
                parse_timeref(text)

    def test_out_of_range_instants_are_errors(self):
        with pytest.raises(ForecastError):
            parse_timeref("0001-01-01T00:00:00+05:00")
        with pytest.raises(ForecastError):
            resolve_instant(H(2), parse_timeref("9999-12-31T12:00:00Z"))

    def test_exactly_one_form(self):
        with pytest.raises(ForecastError):
            TimeRef()
        with pytest.raises(ForecastError):
            TimeRef(instant=datetime.now(timezone.utc), horizon=1)

    def test_second_precision_and_utc_normalization(self):
        t = parse_timeref("2026-08-08T16:05:00.250000+02:00")
        assert t.instant.tzinfo == timezone.utc
        assert t.instant.hour == 14 and t.instant.microsecond == 0


class TestHorizonIndex:
    def test_symbolic_passthrough(self):
        assert horizon_index(H(2), H(0)) == 2
        assert horizon_index(H(2), parse_timeref("2026-08-08T00:00:00Z")) == 2

    def test_same_instant_is_zero(self):
        t = parse_timeref("2026-08-08T14:05:00Z")
        assert horizon_index(t, t) == 0

    def test_calendar_day_difference(self):
        now = parse_timeref("2026-08-08T14:05:00Z")
        assert horizon_index(parse_timeref("2026-08-10T02:05:00Z"), now) == 2

    def test_36h_lead_lands_on_the_calendar_day(self):
        # 09:30 + 36h is 21:30 tomorrow; 14:05 + 36h already reaches the
        # day after (02:05), per the calendar-day oracle.
        morning = datetime(2026, 8, 8, 9, 30, tzinfo=timezone.utc)
        afternoon = datetime(2026, 8, 8, 14, 5, tzinfo=timezone.utc)
        for now, expected in ((morning, 1), (afternoon, 2)):
            valid = now + timedelta(hours=36)
            assert horizon_index(TimeRef.absolute(valid),
                                 TimeRef.absolute(now)) == expected

    def test_negative_allowed(self):
        now = parse_timeref("2026-08-08T00:10:00Z")
        past = parse_timeref("2026-08-05T23:00:00Z")
        assert horizon_index(past, now) == -3

    def test_unresolvable_pair_errors(self):
        with pytest.raises(ForecastError):
            horizon_index(parse_timeref("2026-08-08T00:00:00Z"), H(0))

    def test_against_calendar_oracle_on_random_pairs(self):
        # Independent oracle: proleptic-Gregorian ordinal difference of the dates.
        rng = random.Random(20260808)
        base = datetime(2026, 1, 1, tzinfo=timezone.utc)
        for _ in range(50):
            now = base + timedelta(minutes=rng.randint(0, 500_000))
            valid = base + timedelta(minutes=rng.randint(0, 500_000))
            expected = valid.date().toordinal() - now.date().toordinal()
            assert horizon_index(TimeRef.absolute(valid), TimeRef.absolute(now)) == expected

    def test_monotone_in_valid_at(self):
        now = datetime(2026, 8, 8, 9, 30, tzinfo=timezone.utc)
        ks = [
            horizon_index(TimeRef.absolute(now + timedelta(hours=6 * i)),
                          TimeRef.absolute(now))
            for i in range(20)
        ]
        assert ks == sorted(ks)


class TestConflictsWith:
    def test_paper_cloudiness_conflict(self):
        a = am(Condition.CLOUDINESS, "North", 1, 90)
        b = am(Condition.CLOUDINESS, "North", 1, 75)
        assert conflicts_with(a, b)

    def test_identical_copies_do_not_conflict(self):
        a = am(Condition.CLOUDINESS, "North", 1, 90)
        assert not conflicts_with(a, am(Condition.CLOUDINESS, "North", 1, 90))

    def test_wind_direction_difference_is_a_conflict(self):
        a = am(Condition.WIND, "North", 1, 8, Compass.N)
        b = am(Condition.WIND, "North", 1, 5, Compass.NE)
        assert conflicts_with(a, b)
        same_speed = am(Condition.WIND, "North", 1, 8, Compass.NE)
        assert conflicts_with(a, same_speed)

    def test_different_slots_never_conflict(self):
        a = am(Condition.CLOUDINESS, "North", 1, 90)
        assert not conflicts_with(a, am(Condition.CLOUDINESS, "South", 1, 75))
        assert not conflicts_with(a, am(Condition.CLOUDINESS, "North", 2, 75))
        assert not conflicts_with(a, am(Condition.HUMIDITY, "North", 1, 75))

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 2),
           st.integers(0, 2), st.sampled_from(["North", "South"]),
           st.sampled_from(["North", "South"]))
    def test_symmetric_and_irreflexive(self, m1, m2, h1, h2, l1, l2):
        a = am(Condition.CLOUDINESS, l1, h1, m1)
        b = am(Condition.CLOUDINESS, l2, h2, m2)
        assert conflicts_with(a, b) == conflicts_with(b, a)
        assert not conflicts_with(a, a)


class TestLocation:
    def test_bad_names_rejected(self):
        with pytest.raises(ForecastError):
            Location("no spaces")
        with pytest.raises(ForecastError):
            Location("x_y")


class TestLabel:
    def test_method_must_be_nonempty(self):
        with pytest.raises(ForecastError):
            Label("", H(0))

    def test_observation_flag(self):
        lam = LabeledAssertionalMap(Label("O", H(0)),
                                    am(Condition.SEA, "Sea", 0, 190))
        assert lam.is_observation
        lam = LabeledAssertionalMap(Label("GFS", H(0)),
                                    am(Condition.SEA, "Sea", 0, 190))
        assert not lam.is_observation
