import json
from fractions import Fraction

import pytest

from fusecast.errors import SchemaError
from fusecast.ingest import check_times, parse_source_map
from fusecast.model import Compass, Condition, TimeRef, parse_timeref

from conftest import FIXTURES

H0 = TimeRef(horizon=0)
NOON = parse_timeref("2026-08-08T12:00:00Z")


def doc_bytes(method="GFS", generated_at="h0", entries=()):
    return json.dumps({
        "method": method, "generated_at": generated_at, "entries": list(entries),
    }).encode()


def entry(condition="cloudiness", location="North", valid_at="h1",
          magnitude=50, **extra):
    out = {"condition": condition, "location": location,
           "valid_at": valid_at, "magnitude": magnitude}
    out.update(extra)
    return out


class TestParseSourceMap:
    def test_seaside_gfs_document(self):
        lams = parse_source_map((FIXTURES / "seaside" / "gfs.json").read_bytes())
        assert len(lams) == 21
        assert {l.label.method for l in lams} == {"GFS"}
        assert {l.label.generated_at for l in lams} == {TimeRef(horizon=0)}
        by_kind = {}
        for l in lams:
            by_kind[l.map.condition] = by_kind.get(l.map.condition, 0) + 1
        assert by_kind == {Condition.CLOUDINESS: 9, Condition.WIND: 9,
                           Condition.SEA: 3}

    def test_observation_document(self):
        lams = parse_source_map((FIXTURES / "seaside" / "obs.json").read_bytes())
        assert len(lams) == 7
        assert all(l.is_observation for l in lams)
        assert all(l.map.valid_at == TimeRef(horizon=0) for l in lams)

    def test_empty_entries(self):
        assert parse_source_map(doc_bytes(entries=[])) == []

    def test_order_preserved_and_deterministic(self):
        data = doc_bytes(entries=[
            entry(location="South", magnitude=10),
            entry(location="North", magnitude=20),
        ])
        first = parse_source_map(data)
        assert [l.map.location for l in first] == ["South", "North"]
        assert parse_source_map(data) == first

    def test_duplicate_slot_rejected(self):
        data = doc_bytes(entries=[entry(), entry(magnitude=60)])
        with pytest.raises(SchemaError) as err:
            parse_source_map(data)
        assert "duplicate" in str(err.value)

    def test_unknown_condition_rejected(self):
        with pytest.raises(SchemaError):
            parse_source_map(doc_bytes(entries=[entry(condition="fog")]))

    def test_direction_on_non_wind_rejected(self):
        with pytest.raises(SchemaError):
            parse_source_map(doc_bytes(entries=[entry(direction="N")]))

    def test_wind_without_direction_rejected(self):
        with pytest.raises(SchemaError):
            parse_source_map(doc_bytes(entries=[entry(condition="wind")]))

    def test_wind_entry(self):
        lams = parse_source_map(doc_bytes(entries=[
            entry(condition="wind", magnitude=8, direction="NE")]))
        assert lams[0].map.value.direction is Compass.NE

    def test_exact_decimal_magnitudes(self):
        lams = parse_source_map(doc_bytes(entries=[entry(magnitude=0.85)]))
        assert lams[0].map.value.magnitude == Fraction(17, 20)

    @pytest.mark.parametrize("raw, value", [
        ("999999999.999999", Fraction(999999999999999, 10**6)),
        ("0.000001", Fraction(1, 10**6)),
        ("0.10000000", Fraction(1, 10)),
        ("1E+2", Fraction(100)),
        ("0E-5000", Fraction(0)),
        ("-0E+999999999", Fraction(0)),
    ])
    def test_magnitudes_inside_the_bounds(self, raw, value):
        data = doc_bytes(entries=[entry(condition="sea", location="Sea", magnitude="@")])
        lams = parse_source_map(data.replace(b'"@"', raw.encode()))
        assert lams[0].map.value.magnitude == value

    @pytest.mark.parametrize("raw", [
        "1000000000", "1e9", "0.0000001", "1e5000", "1e-5000",
        pytest.param("9" * 5000, id="5000-digits"),
        "1e999999999", "NaN", "Infinity", '"75"', "true", "null",
    ])
    def test_magnitudes_outside_the_bounds(self, raw):
        data = doc_bytes(entries=[entry(magnitude="@")]).replace(b'"@"', raw.encode())
        with pytest.raises(SchemaError) as err:
            parse_source_map(data)
        assert err.value.path == "entries[0].magnitude"

    def test_unregistered_coordinates_rejected(self):
        data = doc_bytes(entries=[entry(location={"lat": 1, "lon": 2})])
        with pytest.raises(SchemaError):
            parse_source_map(data)


class TestValidateSourceMap:
    """A map is checked by parse_source_map, then by check_times once `now`
    is known; each raises SchemaError at the first problem's path."""

    def test_clean_document_has_no_diagnostics(self):
        data = (FIXTURES / "seaside" / "ecmwf.json").read_bytes()
        assert check_times(parse_source_map(data), H0) == parse_source_map(data)

    def test_percent_bound_diagnostic(self):
        with pytest.raises(SchemaError) as err:
            parse_source_map(doc_bytes(entries=[entry(magnitude=120)]))
        assert err.value.path == "entries[0]"
        assert err.value.message == "cloudiness is a percentage; magnitude 120 > 100"

    def test_bad_method_id(self):
        with pytest.raises(SchemaError) as err:
            parse_source_map(doc_bytes(method="no spaces"))
        assert err.value.path == "method"

    def test_not_json(self):
        with pytest.raises(SchemaError) as err:
            parse_source_map(b"{")
        assert err.value.path == "" and err.value.message.startswith("not valid JSON")

    def test_time_errors_come_from_the_same_scan(self):
        """An absolute validity parses, and cannot be placed against a
        symbolic now."""
        lams = parse_source_map(doc_bytes(entries=[entry(valid_at="2026-08-07T12:00:00Z")]))
        with pytest.raises(SchemaError) as err:
            check_times(lams, H0)
        assert err.value.path == "entries[0].valid_at"
        assert check_times(lams, NOON) == lams

    @pytest.mark.parametrize("doc, path", [
        ({"method": "no spaces", "generated_at": "bogus", "entries": 5, "extra": 1}, "extra"),
        ({"method": "no spaces", "generated_at": "bogus", "entries": 5}, "method"),
        ({"method": "GFS", "generated_at": "bogus", "entries": 5}, "generated_at"),
        ({"method": "GFS", "entries": [entry()]}, "generated_at"),
        ({"method": "GFS", "generated_at": "h0", "entries": 5}, "entries"),
        ({"method": "GFS", "generated_at": "h0",
          "entries": [entry(), entry(magnitude=120), {}]}, "entries[1]"),
        ({"method": "GFS", "generated_at": "h0",
          "entries": [entry(), entry(magnitude=60), {}]}, "entries[1]"),
    ], ids=["unknown-key", "method", "generated-at", "no-generated-at", "entries",
            "entry", "duplicate-entry"])
    def test_first_problem_in_document_order(self, doc, path):
        """Unknown keys, then method, generated_at, entries, then each entry."""
        with pytest.raises(SchemaError) as err:
            parse_source_map(json.dumps(doc).encode())
        assert err.value.path == path
