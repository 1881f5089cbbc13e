import json
from fractions import Fraction

import pytest

from fusecast.errors import SchemaError
from fusecast.ingest import parse_source_map, validate_source_map
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
        _, diags = validate_source_map(data, H0)
        assert [(d.severity, d.path) for d in diags] == [("error", "entries[0].magnitude")]

    def test_unregistered_coordinates_rejected(self):
        data = doc_bytes(entries=[entry(location={"lat": 1, "lon": 2})])
        with pytest.raises(SchemaError):
            parse_source_map(data)


class TestValidateSourceMap:
    def test_clean_document_has_no_diagnostics(self):
        data = (FIXTURES / "seaside" / "ecmwf.json").read_bytes()
        assert validate_source_map(data, H0) == (parse_source_map(data), [])

    def test_percent_bound_diagnostic(self):
        _, diags = validate_source_map(doc_bytes(entries=[entry(magnitude=120)]), H0)
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].path == "entries[0]"
        assert "100" in diags[0].message

    def test_hindcast_warning(self):
        _, diags = validate_source_map(doc_bytes(
            generated_at="2026-08-08T12:00:00Z",
            entries=[entry(valid_at="2026-08-05T12:00:00Z")]), NOON)
        assert [d.severity for d in diags] == ["warning"]
        assert "hindcast" in diags[0].message

    def test_one_day_hindcast_is_not_warned(self):
        _, diags = validate_source_map(doc_bytes(
            generated_at="2026-08-08T12:00:00Z",
            entries=[entry(valid_at="2026-08-07T12:00:00Z")]), NOON)
        assert diags == []

    def test_symbolic_generation_is_not_compared_with_an_absolute_validity(self):
        """`now` is not known while the document is scanned, so h0 cannot be
        placed against the instant three days before it."""
        _, diags = validate_source_map(doc_bytes(
            generated_at="h0", entries=[entry(valid_at="2026-08-05T12:00:00Z")]), NOON)
        assert diags == []

    def test_bad_method_id(self):
        _, diags = validate_source_map(doc_bytes(method="no spaces"), H0)
        assert any(d.path == "method" for d in diags)

    def test_not_json(self):
        _, diags = validate_source_map(b"{", H0)
        assert diags[0].severity == "error"

    def test_time_errors_come_from_the_same_scan(self):
        """check_times' error on a clean document is one more diagnostic:
        an absolute validity cannot be placed against a symbolic now."""
        data = doc_bytes(entries=[entry(valid_at="2026-08-07T12:00:00Z")])
        _, diags = validate_source_map(data, H0)
        assert [(d.severity, d.path) for d in diags] == [("error", "entries[0].valid_at")]
        assert validate_source_map(data, NOON)[1] == []
