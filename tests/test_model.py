import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusecast.errors import ForecastError, SchemaError
from fusecast.ingest import parse_source_map
from fusecast.model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    TimeRef,
    Value,
    check_value,
    conflicts_with,
    decimal_str,
    horizon_index,
    parse_timeref,
    place,
)
from fusecast.theory import encode_atom


def H(k):
    return TimeRef(horizon=k)


M = 1_000_000  # one unit in millionths


def am(condition, loc, horizon, magnitude, direction=None):
    return AssertionalMap(condition, loc, H(horizon),
                         check_value(condition, Value(magnitude * M, direction)))


def parse_entry(method="GFS", **fields):
    """parse_source_map of a document holding one cloudiness entry with
    `fields` replaced."""
    entry = {"condition": "cloudiness", "location": "North", "valid_at": "h1",
             "magnitude": 75, **fields}
    doc = {"method": method, "generated_at": "h0", "entries": [entry]}
    return parse_source_map(json.dumps(doc).encode())


class TestValue:
    def test_percent_bound_enforced_at_construction(self):
        with pytest.raises(ForecastError):
            check_value(Condition.CLOUDINESS, Value(101 * M))
        with pytest.raises(ForecastError):
            check_value(Condition.HUMIDITY, Value(100_500_000))
        check_value(Condition.CLOUDINESS, Value(100 * M))  # boundary ok

    def test_direction_iff_wind(self):
        with pytest.raises(ForecastError):
            check_value(Condition.WIND, Value(5 * M))
        with pytest.raises(ForecastError):
            check_value(Condition.SEA, Value(50 * M, Compass.N))
        v = check_value(Condition.WIND, Value(5 * M, Compass.NE))
        assert v.direction is Compass.NE

    def test_negative_magnitude_rejected(self):
        with pytest.raises(SchemaError, match="must be non-negative") as err:
            parse_entry(magnitude=-1)
        assert err.value.path == "entries[0]"

    def test_exact_decimal_rendering(self):
        assert decimal_str(90_000_000) == "90"
        assert decimal_str(500_000) == "0.5"
        assert decimal_str(12_250_000) == "12.25"
        assert decimal_str(-1) == "-0.000001"


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
            place(H(2), parse_timeref("9999-12-31T12:00:00Z"))

    def test_exactly_one_form(self):
        with pytest.raises(ForecastError):
            TimeRef()
        with pytest.raises(ForecastError):
            TimeRef(instant=datetime.now(timezone.utc), horizon=1)

    def test_second_precision_and_utc_normalization(self):
        t = parse_timeref("2026-08-08T16:05:00.250000+02:00")
        assert t.instant.tzinfo == timezone.utc
        assert t.instant.hour == 14 and t.instant.microsecond == 0

    @pytest.mark.parametrize("text, instant", [
        ("2026-08-08", "2026-08-08T00:00:00Z"),
        ("2026-08-08T14:05", "2026-08-08T14:05:00Z"),
        ("2026-08-08T14:05Z", "2026-08-08T14:05:00Z"),
        ("2026-08-08T14:05-03:30", "2026-08-08T17:35:00Z"),
        ("2026-08-08T14:05:00", "2026-08-08T14:05:00Z"),
        ("2026-08-08T14:05:00Z", "2026-08-08T14:05:00Z"),
        ("2026-08-08T14:05:00.5Z", "2026-08-08T14:05:00Z"),
        ("2026-08-08T14:05:00.123456+02:00", "2026-08-08T12:05:00Z"),
        (" 2026-08-08T14:05:00Z ", "2026-08-08T14:05:00Z"),
    ])
    def test_time_grammar_accepts(self, text, instant):
        assert str(parse_timeref(text)) == instant

    @pytest.mark.parametrize("text", [
        "20260808T000000Z", "2026-W32-7T12:00:00Z", "20260810T120000Z", "2026-8-8",
        "2026-08-08T14", "2026-08-08 14:05:00Z", "2026-08-08t14:05:00Z",
        "2026-08-08Z", "2026-08-08+02:00", "2026-08-08T14:05Z:00", "2026-08-08T14:05:00ZZ",
        "2026-08-08T14:05:00.Z", "2026-08-08T14:05:00.1234567Z", "2026-08-08T14:05:00,5Z",
        "2026-08-08T14:05.5Z", "2026-08-08T14:05:00+0200", "2026-08-08T14:05:00+02:00:30",
        "2026-08-08T24:00:00Z", "2026-02-30", "\uff12026-08-08", "",
    ])
    def test_time_grammar_rejects(self, text):
        """Strings some supported Python versions read and others do not,
        a "Z" that is not at the end, and impossible instants."""
        with pytest.raises(ForecastError, match="unparseable time reference"):
            parse_timeref(text)


class TestPlace:
    def test_symbolic_day_under_an_absolute_now_is_an_instant(self):
        assert place(H(3), parse_timeref("2026-08-10T00:00:00Z")) == \
            parse_timeref("2026-08-13T00:00:00Z")

    def test_absolute_time_under_a_symbolic_now_cannot_be_placed(self):
        with pytest.raises(ForecastError, match="cannot place"):
            place(parse_timeref("2026-08-10T00:00:00Z"), H(0))

    def test_reference_of_now_s_kind_is_returned_unchanged(self):
        t = parse_timeref("2026-08-11T06:30:00Z")
        assert place(t, parse_timeref("2026-08-10T00:00:00Z")) is t
        assert place(H(5), H(2)) == H(5)


class TestHorizonIndex:
    def test_symbolic_passthrough(self):
        assert horizon_index(H(2), H(0)) == 2
        assert horizon_index(H(2), parse_timeref("2026-08-08T00:00:00Z")) == 2

    def test_symbolic_now_shifts_symbolic_validities(self):
        # h_k lies k - j days from a symbolic now h_j, as it would on a calendar.
        assert horizon_index(H(1), H(2)) == -1
        assert horizon_index(H(3), H(2)) == 1
        assert horizon_index(H(2), H(2)) == 0

    def test_hindcast_days(self):
        gen = parse_timeref("2026-08-10T00:00:00Z")
        assert horizon_index(H(3), H(2)) == 1
        assert horizon_index(H(3), gen) == 3
        assert horizon_index(parse_timeref("2026-08-11T12:00:00Z"), gen) == 1

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
            assert horizon_index(TimeRef(instant=valid),
                                 TimeRef(instant=now)) == expected

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
            assert horizon_index(TimeRef(instant=valid), TimeRef(instant=now)) == expected

    def test_monotone_in_valid_at(self):
        now = datetime(2026, 8, 8, 9, 30, tzinfo=timezone.utc)
        ks = [
            horizon_index(TimeRef(instant=now + timedelta(hours=6 * i)),
                          TimeRef(instant=now))
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
        for name in ("no spaces", "x_y"):
            with pytest.raises(SchemaError, match="must match") as err:
                parse_entry(location=name)
            assert err.value.path == "entries[0].location"
            with pytest.raises(ForecastError):
                encode_atom(Condition.CLOUDINESS, None, name, 1, Value(75 * M))


class TestLabel:
    def test_method_must_be_nonempty(self):
        with pytest.raises(SchemaError) as err:
            parse_entry(method="")
        assert err.value.path == "method"

    def test_observation_flag(self):
        lam = LabeledAssertionalMap(Label("O", H(0)),
                                    am(Condition.SEA, "Sea", 0, 190))
        assert lam.is_observation
        lam = LabeledAssertionalMap(Label("GFS", H(0)),
                                    am(Condition.SEA, "Sea", 0, 190))
        assert not lam.is_observation
