import gc
import io
import json
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast import cli
from fusecast.cli import main

from conftest import FIXTURES

SEASIDE = FIXTURES / "seaside"


def _seaside_inputs():
    return [
        "--source", str(SEASIDE / "gfs.json"),
        "--source", str(SEASIDE / "ecmwf.json"),
        "--obs", str(SEASIDE / "obs.json"),
        "--kb", str(SEASIDE / "kb.json"),
        "--now", "h0",
    ]


def pipeline_args(tmp_path, out_name="bulletin.txt", fmt="text", extra=()):
    return ["pipeline", *_seaside_inputs(), "--format", fmt,
            "--out", str(tmp_path / out_name), *extra]


class TestPipeline:
    def test_seaside_run(self, tmp_path):
        assert main(pipeline_args(tmp_path)) == 0
        text = (tmp_path / "bulletin.txt").read_text()
        assert "North: Mostly Cloudy, Light Winds from North East." in text

    def test_missing_kb_names_the_path(self, tmp_path, capsys):
        args = pipeline_args(tmp_path)
        args[args.index("--kb") + 1] = str(tmp_path / "nope.json")
        assert main(args) != 0
        err = capsys.readouterr().err
        assert "nope.json" in err and "[kb]" in err

    def test_invalid_source_names_stage_and_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "X", "generated_at": "h0", "entries": [{}]}')
        args = pipeline_args(tmp_path)
        args[args.index("--source") + 1] = str(bad)
        assert main(args) != 0
        err = capsys.readouterr().err
        assert "[source]" in err and "bad.json" in err

    def test_emitted_theory_reproduces_conclusions(self, tmp_path):
        args = pipeline_args(tmp_path, extra=[
            "--emit-theory", str(tmp_path / "theory.dfl"),
            "--emit-conclusions", str(tmp_path / "conclusions.json"),
        ])
        assert main(args) == 0
        assert main(["reason", str(tmp_path / "theory.dfl"),
                     "--out", str(tmp_path / "re.json")]) == 0
        assert (tmp_path / "re.json").read_bytes() == \
            (tmp_path / "conclusions.json").read_bytes()

    def test_pipeline_equals_composed_stages(self, tmp_path):
        """In every format, for the seaside pair and for a three-model
        variant whose fold has an intermediate (xr-tagged) round."""
        for models, inputs in ((2, _seaside_inputs()), (3, _three_model_inputs(tmp_path))):
            assert main(["tournament", *inputs, "--out", str(tmp_path / "stage.dfl")]) == 0
            theory = (tmp_path / "stage.dfl").read_text()
            assert ("_xr0_" in theory) == (models == 3)
            assert main(["reason", str(tmp_path / "stage.dfl"),
                         "--out", str(tmp_path / "stage.json")]) == 0
            for fmt in ("text", "html", "json"):
                direct, composed = tmp_path / f"direct.{fmt}", tmp_path / f"composed.{fmt}"
                assert main(["pipeline", *inputs, "--format", fmt, "--out", str(direct)]) == 0
                assert main(["bulletin", str(tmp_path / "stage.json"), "--now", "h0",
                             "--format", fmt, "--out", str(composed)]) == 0
                assert composed.read_bytes() == direct.read_bytes(), (models, fmt)
            sources = json.loads(direct.read_text())["header"]["sources"]
            assert sources == ["ecmwf", "gfs", "icon"][:models], sources

    def test_json_format_round_trips(self, tmp_path):
        assert main(pipeline_args(tmp_path, "bulletin.json", fmt="json")) == 0
        doc = json.loads((tmp_path / "bulletin.json").read_text())
        assert doc["header"]["sources"] == ["ecmwf", "gfs"]
        assert any(s["horizon"] == 1 for s in doc["sections"])

    def test_html_format(self, tmp_path):
        assert main(pipeline_args(tmp_path, "bulletin.html", fmt="html")) == 0
        html = (tmp_path / "bulletin.html").read_text()
        assert html.startswith("<!DOCTYPE html>")

    def test_min_accuracy_filters_models(self, tmp_path):
        args = pipeline_args(tmp_path, extra=["--min-accuracy", "0.5"])
        assert main(args) == 0
        text = (tmp_path / "bulletin.txt").read_text()
        # GFS (0.45/0.40) is below threshold: ECMWF raw values pass through,
        # so tomorrow's cloudiness is 75 (Mostly Cloudy) everywhere.
        assert "North: Mostly Cloudy, Light Winds from North East." in text

    def test_timings_flag(self, tmp_path, capsys):
        assert main(pipeline_args(tmp_path, extra=["--timings"])) == 0
        assert "tournament" in capsys.readouterr().err

    def test_stdout_when_no_out_path(self, capsys):
        assert main([
            "pipeline",
            "--source", str(SEASIDE / "ecmwf.json"),
            "--kb", str(SEASIDE / "kb.json"),
            "--now", "h0",
        ]) == 0
        assert "Tomorrow" in capsys.readouterr().out


def _three_model_inputs(tmp_path):
    """The seaside inputs plus ICON: GFS's entries at other magnitudes, and
    accuracies between GFS's and ECMWF's."""
    icon = json.loads((SEASIDE / "gfs.json").read_text())
    icon["method"] = "ICON"
    for entry in icon["entries"]:
        entry["magnitude"] = entry["magnitude"] // 2 + 1
    kb = json.loads((SEASIDE / "kb.json").read_text())
    kb["accuracies"]["ICON"] = {"1": 0.6, "2": 0.55}
    (tmp_path / "icon.json").write_text(json.dumps(icon))
    (tmp_path / "kb3.json").write_text(json.dumps(kb))
    inputs = _seaside_inputs()
    inputs[inputs.index("--kb") + 1] = str(tmp_path / "kb3.json")
    return ["--source", str(tmp_path / "icon.json"), *inputs]


class TestValidate:
    def test_clean_inputs(self, capsys):
        assert main([
            "validate",
            "--source", str(SEASIDE / "gfs.json"),
            "--source", str(SEASIDE / "ecmwf.json"),
            "--obs", str(SEASIDE / "obs.json"),
            "--kb", str(SEASIDE / "kb.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 4

    @pytest.mark.parametrize("method, accuracies, cause", [
        ("ICON", None, "unknown method: 'ICON'"),
        ("Gfs", {"1": 0.6, "2": 0.55}, "method ids 'Gfs' and 'GFS' collide"),
    ], ids=["unknown-method", "tag-collision"])
    def test_cross_document_errors_fail_as_in_pipeline(
            self, tmp_path, capsys, method, accuracies, cause):
        """Every document passes on its own; the tournament, which validate
        runs as pipeline does, fails on what they show together."""
        extra = json.loads((SEASIDE / "gfs.json").read_text())
        extra["method"] = method
        kb = json.loads((SEASIDE / "kb.json").read_text())
        if accuracies:
            kb["accuracies"][method] = accuracies
        (tmp_path / "extra.json").write_text(json.dumps(extra))
        (tmp_path / "kb.json").write_text(json.dumps(kb))
        inputs = _swap(["--source", str(tmp_path / "extra.json"), *_seaside_inputs()],
                       "--kb", tmp_path / "kb.json")
        assert main(["validate", *inputs]) == 1
        validated = capsys.readouterr()
        assert validated.out.count(": ok\n") == 5
        assert validated.err.startswith(f"fusecast: error [tournament]: {cause}")
        assert main(["pipeline", *inputs, "--out", str(tmp_path / "b.txt")]) == 1
        assert capsys.readouterr().err == validated.err

    def test_reads_each_document_once(self, monkeypatch, capsys):
        reads = Counter()
        read = cli._read

        def counting_read(path):
            reads[str(path)] += 1
            return read(path)

        monkeypatch.setattr(cli, "_read", counting_read)
        assert main(["validate", *_seaside_inputs()]) == 0
        assert reads == Counter({str(SEASIDE / name): 1 for name in (
            "gfs.json", "ecmwf.json", "obs.json", "kb.json")})

    def test_bad_magnitude_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "method": "GFS", "generated_at": "h0",
            "entries": [{"condition": "cloudiness", "location": "North",
                         "valid_at": "h1", "magnitude": 120}],
        }))
        assert main(["validate", "--kb", str(SEASIDE / "kb.json"),
                     "--source", str(bad)]) == 1
        assert "percentage" in capsys.readouterr().out


class TestReason:
    def test_reference_theory_conclusions(self, tmp_path):
        assert main(["reason", str(SEASIDE / "reference_theory.dfl"),
                     "--out", str(tmp_path / "out.json")]) == 0
        doc = json.loads((tmp_path / "out.json").read_text())
        assert "CNorth_h1_78" in doc["+d"]
        assert "CNorth_h0_90" in doc["+D"]
        assert doc["undetermined"] == []

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfl"
        bad.write_text("r1: => A\n???\n")
        assert main(["reason", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err


def _parent(doc, pointer):
    for key in pointer[:-1]:
        doc = doc[key]
    return doc


def _seaside_with(tmp_path, name, pointer, raw):
    """A seaside fixture document with the value at `pointer` (a key path)
    replaced by the raw JSON text `raw`, written under tmp_path."""
    doc = json.loads((SEASIDE / name).read_text())
    _parent(doc, pointer)[pointer[-1]] = "@RAW@"
    path = tmp_path / name
    path.write_text(json.dumps(doc).replace('"@RAW@"', raw))
    return path


def _swap(args, flag, value):
    args = list(args)
    args[args.index(flag) + 1] = str(value)
    return args


def _staged_error(capsys, stage, where):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"fusecast: error [{stage}] ({where}): "), err
    return err


VALIDATE = ["validate", "--kb", str(SEASIDE / "kb.json"),
            "--source", str(SEASIDE / "gfs.json"), "--now", "h0"]


class TestInputBoundary:
    """Out-of-bounds input ends in a staged error, in `validate` as in `pipeline`."""

    @pytest.mark.parametrize("pointer, raw, where", [
        (("entries", 0, "magnitude"), "1e5000", "entries[0].magnitude"),
        (("entries", 0, "magnitude"), "1e-5000", "entries[0].magnitude"),
        (("entries", 0, "magnitude"), "9" * 5000, "entries[0].magnitude"),
        (("entries", 0, "location"), '{"lat": 1e5000, "lon": 0}', "entries[0].location"),
        (("entries", 0, "valid_at"), '"h' + "9" * 5000 + '"', "entries[0].valid_at"),
        (("entries", 0, "valid_at"), '"2024-06-01T00:00:00Z"', "entries[0].valid_at"),
        (("generated_at",), '"2024-01-01T00:00:00Z"', "generated_at"),
        (("entries", 0, "condition"), '"sea"', "entries[0].location"),
        (("method",), '"H1"', "method"),
        (("method",), '"XR0"', "method"),
        (("entries", 0, "location"), '"x_y"', "entries[0].location"),
        (("entries", 0, "magnitude"), "-1", "entries[0]"),
        (("entries", 0, "magnitude"), "0.1234567", "entries[0].magnitude"),
        (("entries", 0, "magnitude"), "101", "entries[0]"),
        (("entries", 0, "direction"), '"N"', "entries[0]"),
        (("entries", 0, "condition"), '"wind"', "entries[0]"),
        (("method",), '""', "method"),
    ], ids=["huge", "tiny", "long-int", "lat", "long-horizon", "absolute-valid-at",
            "absolute-generated-at", "sea-off-sea", "horizon-tag", "reserved-tag",
            "location-name", "negative", "seventh-place", "percent-over-100",
            "direction-on-cloudiness", "wind-without-direction", "empty-method"])
    def test_out_of_bounds_source_value(self, tmp_path, capsys, pointer, raw, where):
        bad = _seaside_with(tmp_path, "gfs.json", pointer, raw)
        assert main(_swap(VALIDATE, "--source", bad)) == 1
        assert f"error at {where}: " in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--source", bad)) == 1
        assert f"({bad}): {where}: " in _staged_error(capsys, "source", bad)

    @pytest.mark.parametrize("name, flag, pointer, raw, now, where", [
        ("gfs.json", "--source", ("entries", 0, "valid_at"), '"2025-06-01T00:00:00Z"',
         "2024-01-01T00:00:00Z", "entries[0].valid_at"),
        ("obs.json", "--obs", ("entries", 0, "valid_at"), '"2025-06-01T00:00:00Z"',
         "2024-01-01T00:00:00Z", "entries[0].valid_at"),
        ("gfs.json", "--source", ("generated_at",), '"h1"', "9999-12-31T00:00:00Z",
         "generated_at"),
    ], ids=["past-last-horizon", "obs-past-last-horizon", "past-last-date"])
    def test_time_reference_out_of_reach_of_an_absolute_now(
            self, tmp_path, capsys, name, flag, pointer, raw, now, where):
        """517 days after --now is past the last horizon an atom encodes, and
        h1 after 9999-12-31 is past the last date."""
        bad = _seaside_with(tmp_path, name, pointer, raw)
        validate = ["validate", "--kb", str(SEASIDE / "kb.json"), flag, str(bad), "--now", now]
        assert main(validate) == 1
        assert f"error at {where}: " in capsys.readouterr().out
        assert main(_swap(_swap(pipeline_args(tmp_path), flag, bad), "--now", now)) == 1
        assert f"({bad}): {where}: " in _staged_error(capsys, flag[2:], bad)

    @pytest.mark.parametrize("name, flag", [("obs.json", "--obs"), ("gfs.json", "--source")])
    def test_second_entry_on_one_slot(self, tmp_path, capsys, name, flag):
        """06:00Z and 11:00Z on one day are one slot against an absolute
        --now, so the second reading is an error at its valid_at."""
        doc = json.loads((SEASIDE / name).read_text())
        first, second = doc["entries"][:2]
        first["valid_at"], second["valid_at"] = "2024-01-01T06:00:00Z", "2024-01-01T11:00:00Z"
        second["location"], second["magnitude"] = first["location"], 80
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        now = "2024-01-01T12:00:00Z"
        validate = ["validate", "--kb", str(SEASIDE / "kb.json"), flag, str(bad), "--now", now]
        assert main(validate) == 1
        assert "error at entries[1].valid_at: second entry for cloudiness @ North on day h0" \
            in capsys.readouterr().out
        assert main(_swap(_swap(pipeline_args(tmp_path), flag, bad), "--now", now)) == 1
        assert f"({bad}): entries[1].valid_at: " in _staged_error(capsys, flag[2:], bad)

    def test_observation_documents_that_disagree(self, tmp_path, capsys):
        """Only the two documents together show it: each passes on its own,
        then validate and pipeline both fail at the tournament, naming the
        slot and both values."""
        doc = json.loads((SEASIDE / "gfs.json").read_text())
        doc["method"] = "O"
        obs = tmp_path / "gfs.json"
        obs.write_text(json.dumps(doc))
        args = _swap(pipeline_args(tmp_path), "--source", obs)
        assert main(["validate", *args[1:args.index("--format")]]) == 1
        validated = capsys.readouterr()
        assert f"{obs}: ok\n" in validated.out
        assert main(args) == 1
        assert capsys.readouterr().err == validated.err == (
            "fusecast: error [tournament]: observations disagree on wind @ Center @ h0: "
            "N18 and NE15\n")

    @pytest.mark.parametrize("name, flag, pointer, raw, where", [
        ("kb.json", "--kb", ("accuracies", "GFS", "1"), '0.45, "1": 0.99',
         "accuracies.GFS.1"),
        ("gfs.json", "--source", ("entries", 0, "magnitude"), '5, "magnitude": 90',
         "entries[0].magnitude"),
        ("obs.json", "--obs", ("generated_at",), '"h0", "generated_at": "h1"',
         "generated_at"),
    ], ids=["kb", "source", "obs"])
    def test_duplicate_key_in_a_checked_document(
            self, tmp_path, capsys, name, flag, pointer, raw, where):
        """A repeated key is an error at its path, not resolved last-wins."""
        bad = _seaside_with(tmp_path, name, pointer, raw)
        assert main(["validate", *_swap(_seaside_inputs(), flag, bad)]) == 1
        assert f"{where}: duplicate key" in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), flag, bad)) == 1
        assert f"({bad}): {where}: duplicate key\n" in _staged_error(capsys, flag[2:], bad)

    @pytest.mark.parametrize("flag, doc, where", [
        ("--lexicon", '{"sea": [[null, "Calm"]], "sea": [[null, "Rough"]]}', "sea"),
        ("--templates", '{"wind": "{term}", "wind": "{term} {direction}"}', "wind"),
    ], ids=["lexicon", "templates"])
    def test_duplicate_key_in_a_rendering_document(self, tmp_path, capsys, flag, doc, where):
        bad = tmp_path / "doc.json"
        bad.write_text(doc)
        assert main(pipeline_args(tmp_path, extra=[flag, str(bad)])) == 1
        assert _staged_error(capsys, flag[2:], bad).endswith(f"{where}: duplicate key\n")

    def test_duplicate_key_in_conclusions(self, tmp_path, capsys):
        conclusions = tmp_path / "conclusions.json"
        conclusions.write_text('{"+d": [], "+d": ["CSouth_h1_75"]}')
        assert main(["bulletin", str(conclusions)]) == 1
        assert _staged_error(capsys, "bulletin", conclusions).endswith("+d: duplicate key\n")

    def test_huge_exponent_is_rejected_quickly(self, tmp_path, capsys):
        bad = _seaside_with(tmp_path, "gfs.json", ("entries", 0, "magnitude"),
                            "1e999999999")
        start = time.perf_counter()
        assert main(_swap(pipeline_args(tmp_path), "--source", bad)) == 1
        assert time.perf_counter() - start < 1.0
        _staged_error(capsys, "source", bad)

    @pytest.mark.parametrize("flag, value", [
        ("--min-accuracy", "1e5000"),
        ("--min-accuracy", "many"),
        ("--min-accuracy", "0.5_0"),
        ("--min-accuracy", " 0.5"),
        ("--min-accuracy", "+0.5"),
        ("--now", "bogus"),
        ("--now", "h367"),
        ("--now", "0001-01-01T00:00:00+05:00"),
    ])
    def test_bad_flag_fails_validate_as_it_fails_pipeline(
            self, tmp_path, capsys, flag, value):
        assert main(pipeline_args(tmp_path, extra=[flag, value])) == 1
        _staged_error(capsys, "args", flag)
        assert main([*VALIDATE, flag, value]) == 1
        _staged_error(capsys, "args", flag)

    def test_min_accuracy_outside_unit_interval(self, tmp_path, capsys):
        assert main(pipeline_args(tmp_path, extra=["--min-accuracy", "2"])) == 1
        _staged_error(capsys, "kb", SEASIDE / "kb.json")
        assert main([*VALIDATE, "--min-accuracy", "2", "--now", "bogus"]) == 1
        _staged_error(capsys, "args", "--now")
        assert main([*VALIDATE, "--min-accuracy", "2"]) == 1
        assert "min_accuracy: 2 outside [0, 1]" in capsys.readouterr().out

    def test_out_of_bounds_atoms_are_opaque_to_the_bulletin(self, tmp_path):
        conclusions = tmp_path / "conclusions.json"
        conclusions.write_text(json.dumps({"+d": [
            "CNorth_h1_" + "9" * 5000, "CNorth_h" + "9" * 5000 + "_75",
            "CNorth_h400_75", "CSouth_h1_75"]}))
        assert main(["bulletin", str(conclusions), "--out",
                     str(tmp_path / "b.txt")]) == 0
        assert (tmp_path / "b.txt").read_text() == \
            "Tomorrow\nSouth: Mostly Cloudy.\n"

    @pytest.mark.parametrize("doc, message", [
        ({"plus_defeasible": ["CNorth_h1_50"]}, "plus_defeasible: unknown key"),
        ({}, "+d: missing key"),
        ({"+d": ["CNorth_h1_50"], "bogus": 1}, "bogus: unknown key"),
        ({"-D": ["CNorth_h1_50"]}, "+d: missing key"),
    ], ids=["misspelled", "empty", "extra", "no-plus-d"])
    def test_conclusions_keys_are_checked(self, tmp_path, capsys, doc, message):
        """A misspelled or missing "+d" would render an empty bulletin."""
        conclusions = tmp_path / "conclusions.json"
        conclusions.write_text(json.dumps(doc))
        assert main(["bulletin", str(conclusions)]) == 1
        assert _staged_error(capsys, "bulletin", conclusions).endswith(f": {message}\n")

    def test_non_string_literal_is_a_schema_error(self, tmp_path, capsys):
        conclusions = tmp_path / "conclusions.json"
        conclusions.write_text('{"+d": [5]}')
        assert main(["bulletin", str(conclusions)]) == 1
        err = _staged_error(capsys, "bulletin", conclusions)
        assert "+d: must be a list of literal strings" in err

    def test_superiority_chain_of_1500_rules(self, tmp_path, capsys):
        rules = [f"r{i}: => {'-' * (i % 2)}A" for i in range(1500)]
        sups = [f"r{i} > r{i + 1}" for i in range(1499)]
        theory = tmp_path / "chain.dfl"
        theory.write_text("\n".join(rules + sups) + "\nr1499 > r0\n")
        assert main(["reason", str(theory)]) == 1
        assert "cycle" in _staged_error(capsys, "reason", theory)

    def test_override_chain_of_1500_methods(self, tmp_path, capsys):
        chain = [{"winner": f"M{i}", "loser": f"M{i + 1}"} for i in range(1499)]
        accuracies = {"ECMWF": {"1": 0.85}, "GFS": {"1": 0.45},
                      **{f"M{i}": {"1": 0.5} for i in range(1500)}}
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps({"accuracies": accuracies, "overrides": chain}))
        assert main(_swap(VALIDATE, "--kb", kb)) == 0
        kb.write_text(json.dumps({"accuracies": accuracies,
                                  "overrides": chain + [{"winner": "M1499", "loser": "M0"}]}))
        assert main(_swap(VALIDATE, "--kb", kb)) == 1
        assert "form a cycle" in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--kb", kb)) == 1
        _staged_error(capsys, "kb", kb)

    @pytest.mark.parametrize("override, where", [
        ('{"winner": "Gfs", "loser": "ECMWF"}', "overrides[0].winner"),
        ('{"winner": "GFS", "loser": "ICON"}', "overrides[0].loser"),
        ('{"winner": "O", "loser": "GFS"}', "overrides[0].winner"),
        ('{"winner": "GFS", "loser": "ECMWF", "location": "no such place"}',
         "overrides[0].location"),
    ], ids=["mistyped-winner", "unrecorded-loser", "observation", "location-name"])
    def test_override_that_can_never_match(self, tmp_path, capsys, override, where):
        """An override naming a method without an accuracy record, or a place
        that is no location name, would be ignored without a word."""
        bad = _seaside_with(tmp_path, "kb.json", ("overrides",), f"[{override}]")
        assert main(["validate", *_swap(_seaside_inputs(), "--kb", bad)]) == 1
        assert f"{bad}: error: {where}: " in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--kb", bad)) == 1
        assert f"({bad}): {where}: " in _staged_error(capsys, "kb", bad)

    def test_deeply_nested_json(self, tmp_path, capsys):
        kb = tmp_path / "kb.json"
        kb.write_text('{"overrides": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(_swap(pipeline_args(tmp_path), "--kb", kb)) == 1
        assert "not valid JSON" in _staged_error(capsys, "kb", kb)

    @pytest.mark.parametrize("flag, doc, path", [
        ("--templates", '{"wind": "\\ud800 {term}"}', "wind"),
        ("--lexicon", '{"temperature": [[null, "Hot \\udfff"]]}', "temperature[0][1]"),
    ], ids=["template-fragment", "lexicon-term"])
    def test_lone_surrogate_in_a_rendering_document(self, tmp_path, capsys, flag, doc, path):
        bad = tmp_path / "doc.json"
        bad.write_text(doc)
        assert main(pipeline_args(tmp_path, extra=[flag, str(bad)])) == 1
        err = _staged_error(capsys, flag[2:], bad)
        assert err.endswith(f"{path}: string holds a lone surrogate\n"), err

    def test_lone_surrogate_in_a_source_key(self, tmp_path, capsys):
        bad = _seaside_with(tmp_path, "gfs.json", ("entries", 0, "magnitude"),
                            '90, "\\udc00": 1')
        assert main(_swap(VALIDATE, "--source", bad)) == 1
        assert "error at entries[0]: key holds a lone surrogate" in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--source", bad)) == 1
        _staged_error(capsys, "source", bad)


_DOCS = ("kb.json", "gfs.json", "ecmwf.json", "obs.json")

_RAW = st.one_of(
    st.sampled_from([
        "1e5000", "-1e5000", "1e-5000", "9" * 5000, "1e999999999", "-0",
        "0.1234567", "999999999.999999", "1000000000", "1.5", "120", "-3",
        "true", "null", "[]", "{}", '[1, "a"]', '""', '"x"', '"O"', '"GFS"',
        '"wind"', '"sea"', '"NE"', '"Sea"', '"North"', '"H1"', '"XR0"', '"h1"', '"h366"',
        '"h367"', '"h' + "9" * 50 + '"',
        '"2026-01-01T00:00:00Z"', '"0001-01-01T00:00:00+05:00"',
        '"9999-12-31T23:00:00Z"', '{"lat": 1, "lon": 2}', '{"lat": 1e5000, "lon": 0}',
    ]),
    st.integers().map(str),
    st.from_regex(r"-?[0-9]{1,12}(\.[0-9]{1,9})?([eE][-+]?[0-9]{1,3})?", fullmatch=True),
)


def _pointers(node, prefix=()):
    """Every key path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _pointers(child, prefix + (key,))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_end_in_staged_errors(tmp_path_factory, data):
    """Any mutation of the seaside documents exits 0 or 1 without a traceback,
    and documents that `validate` passes do not fail `pipeline`."""
    docs = {name: json.loads((SEASIDE / name).read_text()) for name in _DOCS}
    raws = []
    for _ in range(data.draw(st.integers(1, 3))):
        doc = docs[data.draw(st.sampled_from(_DOCS))]
        pointer = data.draw(st.sampled_from(list(_pointers(doc))))
        parent = _parent(doc, pointer)
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[pointer[-1]]
        else:
            parent[pointer[-1]] = f"@RAW{len(raws)}@"
            raws.append(data.draw(_RAW))
    tmp = tmp_path_factory.mktemp("mutated")
    for name, doc in docs.items():
        text = json.dumps(doc)
        for i, raw in enumerate(raws):
            text = text.replace(f'"@RAW{i}@"', raw)
        (tmp / name).write_text(text)
    inputs = ["--kb", str(tmp / "kb.json"), "--source", str(tmp / "gfs.json"),
              "--source", str(tmp / "ecmwf.json"), "--obs", str(tmp / "obs.json"),
              "--now", "h0"]
    validated, _ = _run(["validate", *inputs])
    status, err = _run(["pipeline", *inputs, "--out", str(tmp / "bulletin.txt")])
    assert validated in (0, 1) and status in (0, 1)
    assert "Traceback" not in err
    if validated == 0:
        assert status == 0, err


def test_main_leaves_the_gc_policy_alone(tmp_path):
    """Only the process entry point (`fusecast.__main__.run`) tunes the
    collector; tests and in-process callers keep theirs."""
    before = gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()
    assert main(pipeline_args(tmp_path)) == 0
    assert main(["validate", *_seaside_inputs()]) == 0
    assert (gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()) == before
