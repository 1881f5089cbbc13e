import gc
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast import cli
from fusecast.cli import main

from conftest import FIXTURES, run_python

SEASIDE = FIXTURES / "seaside"
RAIN_THEORY = FIXTURES / "rain" / "reference_theory.dfl"
RAIN_CONCLUSIONS = FIXTURES / "golden" / "rain_conclusions.json"


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


#: An override document whose key repeats, with its flag and the key.
by_repeated_override_key = pytest.mark.parametrize("flag, doc, where", [
    ("--lexicon", '{"sea": [[null, "Calm"]], "sea": [[null, "Rough"]]}', "sea"),
    ("--templates", '{"wind": "{term}", "wind": "{term} {direction}"}', "wind"),
], ids=["lexicon", "templates"])


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
        kb = _seaside_with(tmp_path, "kb.json", ("min_accuracy",), "0.5")
        assert main(_swap(pipeline_args(tmp_path), "--kb", kb)) == 0
        text = (tmp_path / "bulletin.txt").read_text()
        # GFS (0.45/0.40) is below threshold: ECMWF raw values pass through,
        # so tomorrow's cloudiness is 75 (Mostly Cloudy) everywhere.
        assert "North: Mostly Cloudy, Light Winds from North East." in text

    @pytest.mark.parametrize("threshold, gfs_horizons", [("0.45", {"h0", "h1"}),
                                                         ("0.450001", set())])
    def test_min_accuracy_keeps_a_model_exactly_at_it(self, tmp_path, threshold, gfs_horizons):
        # GFS scores exactly 0.45 at h0 and h1 and 0.40 at h2.
        out = tmp_path / "theory.dfl"
        kb = _seaside_with(tmp_path, "kb.json", ("min_accuracy",), threshold)
        assert main(["tournament", *_swap(_seaside_inputs(), "--kb", kb),
                     "--out", str(out)]) == 0
        assert set(re.findall(r"^r_\w+_gfs_(h\d)_", out.read_text(), re.M)) == gfs_horizons

    def test_stdout_when_no_out_path(self, capsys):
        assert main([
            "pipeline",
            "--source", str(SEASIDE / "ecmwf.json"),
            "--kb", str(SEASIDE / "kb.json"),
            "--now", "h0",
        ]) == 0
        assert "Tomorrow" in capsys.readouterr().out


    @pytest.mark.parametrize("flag", ["--out", "--emit-theory", "--emit-conclusions"])
    def test_unwritable_output_names_the_stage(self, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "out.txt"
        args = pipeline_args(tmp_path)
        assert main(_swap(args, "--out", target) if flag == "--out"
                    else [*args, flag, str(target)]) == 1
        err = _staged_error(capsys, "output", target)
        assert "No such file or directory" in err and err.count("\n") == 1

    def test_every_conclusions_path_writes_the_same_bytes(self, tmp_path):
        """reason --out, reason to stdout and pipeline --emit-conclusions."""
        golden = FIXTURES / "golden"
        theory, out, emitted = golden / "seaside_theory.dfl", tmp_path / "o", tmp_path / "e"
        assert main(["reason", str(theory), "--out", str(out)]) == 0
        stdout = run_python(["-m", "fusecast", "reason", str(theory)], encoding=None).stdout
        assert main(pipeline_args(tmp_path, extra=["--emit-conclusions", str(emitted)])) == 0
        expected = (golden / "seaside_conclusions.json").read_bytes()
        assert out.read_bytes() == stdout == emitted.read_bytes() == expected

    def test_symbolic_now_places_validities_as_the_calendar_does(self, tmp_path, capsys):
        """h0 and h3 under a label generated at h2 and --now h2 are the day
        before yesterday and tomorrow, as their absolute counterparts are."""
        kb = str(SEASIDE / "kb.json")
        bulletins = []
        for generated, valid, now in [
                ("h2", ("h0", "h3"), "h2"),
                ("2026-08-10T00:00Z", ("2026-08-08T12:00Z", "2026-08-11T12:00Z"),
                 "2026-08-10T06:00Z")]:
            source = tmp_path / "gfs.json"
            source.write_text(json.dumps({"method": "GFS", "generated_at": generated, "entries": [
                {"condition": "cloudiness", "location": "North", "valid_at": at, "magnitude": m}
                for at, m in zip(valid, (90, 20))]}))
            assert main(["pipeline", "--kb", kb, "--source", str(source), "--now", now]) == 0
            bulletins.append(capsys.readouterr().out)
        assert bulletins[0] == bulletins[1] == "Tomorrow\nNorth: Partly Cloudy.\n"

    @pytest.mark.parametrize("spellings", [
        [("2024-01-01T12:00:00Z", "2024-01-03T12:00:00Z"), ("h0", "2024-01-03T12:00:00Z"),
         ("2024-01-01T12:00:00Z", "h2"), ("h0", "h2")],
        [("2023-12-31T12:00:00Z", "2024-01-02T12:00:00Z"), ("2023-12-31T12:00:00Z", "h1")],
    ], ids=["generated-now", "generated-yesterday"])
    def test_one_forecast_spelled_two_ways_gives_one_theory(self, tmp_path, capsys, spellings):
        """Under --now 2024-01-01T12:00:00Z, hK is the instant K days after it,
        so every spelling of a pair names the same two instants, two days
        apart. At that lead B is the more accurate model, and its 90 wins."""
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps({"accuracies": {"A": {"1": 0.9, "2": 0.5},
                                                 "B": {"1": 0.5, "2": 0.9}}}))
        theories = []
        for generated, valid in spellings:
            args = ["--kb", str(kb), "--now", "2024-01-01T12:00:00Z"]
            for method, magnitude in (("A", 20), ("B", 90)):
                source = tmp_path / f"{method}.json"
                source.write_text(json.dumps({
                    "method": method, "generated_at": generated, "entries": [
                        {"condition": "cloudiness", "location": "North", "valid_at": valid,
                         "magnitude": magnitude}]}))
                args += ["--source", str(source)]
            assert main(["tournament", *args]) == 0
            theories.append(capsys.readouterr().out)
            assert main(["pipeline", *args]) == 0
            assert "\nNorth: Cloudy.\n" in capsys.readouterr().out
        assert theories == theories[:1] * len(spellings)


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

    def test_reads_each_document_once(self, tmp_path, monkeypatch, capsys):
        """validate and pipeline read every document flag, the overrides too,
        once and in one order; validate prints one line per document in that
        order."""
        overrides = _overrides(tmp_path)
        order = [str(SEASIDE / name) for name in _DOCS] + overrides[1::2]
        reads = []
        read = cli._read

        def counting_read(path):
            reads.append(str(path))
            return read(path)

        monkeypatch.setattr(cli, "_read", counting_read)
        assert main(["validate", *_seaside_inputs(), *overrides]) == 0
        assert capsys.readouterr().out == "".join(f"{path}: ok\n" for path in order)
        assert main(["pipeline", *_seaside_inputs(), *overrides]) == 0
        assert reads == order * 2

    @by_repeated_override_key
    def test_bad_override_fails_before_the_stages(self, tmp_path, capsys, flag, doc, where):
        """The maps name a method the knowledge base lacks, which fails at
        [tournament]; the override is read before any stage runs, so both
        commands report it instead."""
        icon = json.loads((SEASIDE / "gfs.json").read_text())
        icon["method"] = "ICON"
        (tmp_path / "icon.json").write_text(json.dumps(icon))
        bad = tmp_path / "doc.json"
        bad.write_text(doc)
        inputs = ["--source", str(tmp_path / "icon.json"), *_seaside_inputs(), flag, str(bad)]
        assert main(["validate", *inputs]) == 1
        validated = capsys.readouterr()
        assert validated.out.endswith(f"{bad}: error: {where}: duplicate key\n")
        assert validated.err == ""
        assert main(["pipeline", *inputs]) == 1
        assert _staged_error(capsys, flag[2:], bad) == (
            f"fusecast: error [{flag[2:]}] ({bad}): {where}: duplicate key\n")

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

    def test_condition_without_bands_fails_at_the_bulletin_as_in_pipeline(
            self, tmp_path, capsys):
        """Every document passes, but the default lexicon cannot word a
        temperature: validate runs the rest of pipeline and fails where it
        does. A lexicon that bands temperature passes both, and validate
        still writes only its lines."""
        doc = json.loads((SEASIDE / "gfs.json").read_text())
        doc["entries"] = [{"condition": "temperature", "location": "North",
                           "valid_at": "h1", "magnitude": 25}]
        gfs = tmp_path / "gfs.json"
        gfs.write_text(json.dumps(doc))
        inputs = _swap(_seaside_inputs(), "--source", gfs)
        bulletin = tmp_path / "b.txt"
        assert main(["validate", *inputs]) == 1
        validated = capsys.readouterr()
        assert validated.out.count(": ok\n") == 4
        assert validated.err.startswith(
            "fusecast: error [bulletin]: no bands configured for temperature; ")
        assert main(["pipeline", *inputs, "--out", str(bulletin)]) == 1
        assert capsys.readouterr().err == validated.err
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text('{"temperature": [[20, "Mild"], [null, "Hot"]]}')
        inputs += ["--lexicon", str(lexicon)]
        assert main(["validate", *inputs]) == 0
        assert capsys.readouterr().out == "".join(
            f"{path}: ok\n" for path in (SEASIDE / "kb.json", gfs, SEASIDE / "ecmwf.json",
                                         SEASIDE / "obs.json", lexicon))
        assert main(["pipeline", *inputs, "--out", str(bulletin)]) == 0
        assert "North: Mostly Cloudy, Light Winds from North East, Hot.\n" in bulletin.read_text()


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

    def test_theory_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfl"
        bad.write_bytes(b"r1: => A\xff\n")
        assert main(["reason", str(bad)]) == 1
        _staged_error(capsys, "reason", bad)


def test_each_theory_is_validated_once(tmp_path, monkeypatch):
    """The code that makes a theory validates it; the reasoner takes it as valid."""
    from fusecast import reasoner, theory, tournament

    calls = []
    validate = theory.validate_theory

    def counted(t):
        calls.append(t)
        return validate(t)

    for module in (theory, tournament, reasoner):
        monkeypatch.setattr(module, "validate_theory", counted)
    assert main(pipeline_args(tmp_path)) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["reason", str(RAIN_THEORY), "--out", str(tmp_path / "c.json")]) == 0
    assert len(calls) == 1


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


def _overrides(tmp_path):
    """--lexicon and --templates, each with a document pipeline accepts."""
    lexicon, templates = tmp_path / "lexicon.json", tmp_path / "templates.json"
    lexicon.write_text('{"temperature": [[20, "Mild"], [null, "Hot"]]}')
    templates.write_text('{"sea": "sea {term}"}')
    return ["--lexicon", str(lexicon), "--templates", str(templates)]


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
        assert f"{bad}: error: {where}: " in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--source", bad)) == 1
        assert f"({bad}): {where}: " in _staged_error(capsys, "source", bad)

    @pytest.mark.parametrize("name, flag, pointer, raw, now, where", [
        ("gfs.json", "--source", ("entries", 0, "valid_at"), '"2025-06-01T00:00:00Z"',
         "2024-01-01T00:00:00Z", "entries[0].valid_at"),
        ("obs.json", "--obs", ("entries", 0, "valid_at"), '"2025-06-01T00:00:00Z"',
         "2024-01-01T00:00:00Z", "entries[0].valid_at"),
        ("gfs.json", "--source", ("generated_at",), '"h1"', "9999-12-31T00:00:00Z",
         "generated_at"),
        ("gfs.json", "--source", ("entries", 0, "valid_at"), '"h3"', "9999-12-31T00:00:00Z",
         "entries[0].valid_at"),
    ], ids=["past-last-horizon", "obs-past-last-horizon", "past-last-date",
            "valid-at-past-last-date"])
    def test_time_reference_out_of_reach_of_an_absolute_now(
            self, tmp_path, capsys, name, flag, pointer, raw, now, where):
        """517 days after --now is past the last horizon an atom encodes, and
        h1 or h3 after 9999-12-31 is past the last date, as a generation or a
        validity."""
        bad = _seaside_with(tmp_path, name, pointer, raw)
        validate = _swap(_swap(["validate", *_seaside_inputs()], flag, bad), "--now", now)
        assert main(validate) == 1
        assert f"{bad}: error: {where}: " in capsys.readouterr().out
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
        validate = _swap(_swap(["validate", *_seaside_inputs()], flag, bad), "--now", now)
        assert main(validate) == 1
        assert f"{bad}: error: entries[1].valid_at: second entry for cloudiness @ North " \
            "on day h0" in capsys.readouterr().out
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

    def test_observation_map_with_a_model_method(self, tmp_path, capsys):
        """An --obs map is ground truth, so its method must be O; a GFS map
        there would otherwise be fused as one more forecast."""
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"method": "GFS", "generated_at": "h0", "entries": [
            {"condition": "cloudiness", "location": "North", "valid_at": "h0",
             "magnitude": 5}]}))
        inputs = ["--kb", str(SEASIDE / "kb.json"), "--source", str(SEASIDE / "ecmwf.json"),
                  "--obs", str(obs), "--now", "h0"]
        assert main(["validate", *inputs]) == 1
        assert capsys.readouterr().out.endswith(
            f"{obs}: error: method: must be 'O' in an observation map, not 'GFS'\n")
        assert main(["pipeline", *inputs, "--out", str(tmp_path / "bulletin.txt")]) == 1
        assert _staged_error(capsys, "obs", obs).endswith("): method: must be 'O' in an "
                                                          "observation map, not 'GFS'\n")
        assert not (tmp_path / "bulletin.txt").exists()

    def test_empty_observation_map_with_a_model_method(self, tmp_path, capsys):
        """The map's own method decides, so a GFS map with no entries fails as
        one with an entry does."""
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"method": "GFS", "generated_at": "h0", "entries": []}))
        inputs = _swap(_seaside_inputs(), "--obs", obs)
        assert main(["validate", *inputs]) == 1
        assert capsys.readouterr().out.endswith(
            f"{obs}: error: method: must be 'O' in an observation map, not 'GFS'\n")
        assert main(["pipeline", *inputs, "--out", str(tmp_path / "bulletin.txt")]) == 1
        assert _staged_error(capsys, "obs", obs).endswith("): method: must be 'O' in an "
                                                          "observation map, not 'GFS'\n")
        assert not (tmp_path / "bulletin.txt").exists()

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

    @by_repeated_override_key
    def test_duplicate_key_in_a_rendering_document(self, tmp_path, capsys, flag, doc, where):
        """validate reads it as pipeline does, before any stage, and reports
        it on its own line."""
        bad = tmp_path / "doc.json"
        bad.write_text(doc)
        assert main(pipeline_args(tmp_path, extra=[flag, str(bad)])) == 1
        assert _staged_error(capsys, flag[2:], bad).endswith(f"{where}: duplicate key\n")
        assert main(["validate", *_seaside_inputs(), flag, str(bad)]) == 1
        assert capsys.readouterr() == (
            "".join(f"{SEASIDE / name}: ok\n" for name in _DOCS)
            + f"{bad}: error: {where}: duplicate key\n", "")

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
        ("--now", "bogus"),
        ("--now", "h367"),
        ("--now", "0001-01-01T00:00:00+05:00"),
        ("--now", ""),
    ])
    def test_bad_flag_fails_validate_as_it_fails_pipeline(
            self, tmp_path, capsys, flag, value):
        """And as it fails `bulletin`, which takes --now for its header."""
        assert main(pipeline_args(tmp_path, extra=[flag, value])) == 1
        _staged_error(capsys, "args", flag)
        assert main([*VALIDATE, flag, value]) == 1
        _staged_error(capsys, "args", flag)
        assert main(["bulletin", str(RAIN_CONCLUSIONS), flag, value]) == 1
        _staged_error(capsys, "args", flag)

    def test_bulletin_reads_its_flags_before_its_conclusions(self, tmp_path, capsys):
        """As pipeline does: --now first, then the overrides, then the stage."""
        missing = tmp_path / "missing.json"
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text('{"sea": [[null, "Calm"]], "sea": [[null, "Rough"]]}')
        argv = ["bulletin", str(missing), "--lexicon", str(lexicon)]
        assert main([*argv, "--now", "garbage"]) == 1
        _staged_error(capsys, "args", "--now")
        assert main([*argv, "--now", "h0"]) == 1
        _staged_error(capsys, "lexicon", lexicon)
        assert main(argv[:2]) == 1
        _staged_error(capsys, "bulletin", missing)

    @pytest.mark.parametrize("command", ["validate", "pipeline", "tournament"])
    def test_source_is_required(self, capsys, command):
        """`validate` accepts the command lines `pipeline` accepts, so neither
        runs without a model source map."""
        with pytest.raises(SystemExit) as exited:
            main([command, "--kb", str(SEASIDE / "kb.json"), "--now", "h0"])
        assert exited.value.code == 2
        assert "the following arguments are required: --source" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "validate"])
    @pytest.mark.parametrize("flag", ["--kb", "--obs", "--lexicon", "--templates"])
    def test_document_flag_given_twice_is_refused(self, tmp_path, capsys, command, flag):
        """argparse keeps the last copy of a single-valued flag and never
        reads the first, so a second copy is refused before any document
        is read; here the first copy names no file."""
        out = tmp_path / "bulletin.txt"
        argv = [command, flag, str(tmp_path / "missing.json"), *_seaside_inputs(),
                *_overrides(tmp_path)]
        with pytest.raises(SystemExit) as exited:
            main(argv + (["--out", str(out)] if command == "pipeline" else []))
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"usage: fusecast {command} ")
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"fusecast {command}: error: argument {flag}: may be given once"]

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

    def test_render_error_names_the_conclusions_file(self, tmp_path, capsys):
        conclusions = tmp_path / "conclusions.json"
        conclusions.write_text(json.dumps({"+d": ["CNorth_h1_75", "CNorth_h1_80"]}))
        assert main(["bulletin", str(conclusions)]) == 1
        assert "incoherent scenario" in _staged_error(capsys, "bulletin", conclusions)

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
        ('{"winner": "GFS", "loser": "ECMWF", "condition": "sea", "location": "North"}',
         "overrides[0].location"),
    ], ids=["mistyped-winner", "unrecorded-loser", "observation", "location-name",
            "sea-off-sea"])
    def test_override_that_can_never_match(self, tmp_path, capsys, override, where):
        """An override naming a method without an accuracy record, a place that
        is no location name, or a sea scope off `Sea`, would be ignored without
        a word."""
        bad = _seaside_with(tmp_path, "kb.json", ("overrides",), f"[{override}]")
        assert main(["validate", *_swap(_seaside_inputs(), "--kb", bad)]) == 1
        assert f"{bad}: error: {where}: " in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--kb", bad)) == 1
        assert f"({bad}): {where}: " in _staged_error(capsys, "kb", bad)

    @pytest.mark.parametrize("raw", ["2", "-1", "1e5000", '"0.5"', "0.0000001", "null"])
    def test_bad_min_accuracy_fails_validate_as_it_fails_pipeline(self, tmp_path, capsys, raw):
        """The KB alone sets the reliability threshold, bounded as every number is."""
        bad = _seaside_with(tmp_path, "kb.json", ("min_accuracy",), raw)
        assert main(["validate", *_swap(_seaside_inputs(), "--kb", bad)]) == 1
        assert f"{bad}: error: min_accuracy: " in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--kb", bad)) == 1
        assert f"({bad}): min_accuracy: " in _staged_error(capsys, "kb", bad)

    @pytest.mark.parametrize("flag, doc, error", [
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45, "01": 0.4}}}',
         "accuracies.GFS.01: duplicate (method, horizon) record"),
        ("--kb", '{"accuracies": {"GFS": {"01": 1.5}}}',
         "accuracies.GFS.01: accuracy 1.5 outside [0, 1]"),
        ("--kb", '{"accuracies": {"O": {"1": 0.5}}}', "accuracies.O: the observation "
         "method has implicit accuracy 1.0 and may not be overridden"),
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45}}, "min_accuracy": 2}',
         "min_accuracy: 2 outside [0, 1]"),
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45}}, '
                 '"overrides": [{"winner": "GFS", "loser": "GFS"}]}',
         "overrides[0]: winner equals loser"),
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45}, "ECMWF": {"1": 0.85}}, "overrides": ['
                 '{"winner": "GFS", "loser": "ECMWF", "condition": "wind", "location": "Sea"},'
                 '{"winner": "ECMWF", "loser": "GFS", "condition": "wind", "location": "Sea"}]}',
         "overrides: priority overrides form a cycle within scope condition wind, location Sea"),
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45}, "ECMWF": {"1": 0.85}, "x y": {"1": 0.5}}}',
         "accuracies.x y: must be an identifier matching [A-Za-z][A-Za-z0-9]*"),
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45}, "ECMWF": {"1": 0.85}, "XR0": {"1": 0.5}}}',
         "accuracies.XR0: method id 'XR0' lowers onto the reserved tag 'xr0'"),
        ("--kb", '{"accuracies": {"GFS": {"1": 0.45}, "ECMWF": {"1": 0.85}, "H1": {"1": 0.5}}}',
         "accuracies.H1: method id 'H1' cannot be embedded in atoms "
         "(must be alphanumeric and not look like a horizon segment)"),
        ("--lexicon", '{"sea": [[100, "Calm"], [50, "Slight"], [null, "Rough"]]}',
         "sea[1]: band bounds must increase"),
        ("--lexicon", '{"sea": [[null, "Choppy"]]}',
         "sea[0]: term 'Choppy' is not in the vocabulary"),
        ("--lexicon", '{"sea": [[100, "Calm"]]}', "sea: bands must cover the whole range "
         "(end with null, or reach 100 for percent conditions)"),
    ], ids=["kb-duplicate-horizon", "kb-accuracy", "kb-observation", "kb-min-accuracy",
            "kb-winner-is-loser", "kb-scoped-cycle", "kb-method-not-an-identifier",
            "kb-method-on-a-fold-tag", "kb-method-on-a-horizon", "lexicon-falling-bounds",
            "lexicon-term", "lexicon-uncovered"])
    def test_kb_or_lexicon_fault_named_at_its_path(self, tmp_path, capsys, flag, doc, error):
        """validate and pipeline stop at the same stage, file and path."""
        bad = tmp_path / "doc.json"
        bad.write_text(doc)
        inputs = _swap(_seaside_inputs(), flag, bad) if flag == "--kb" else \
            [*_seaside_inputs(), flag, str(bad)]
        assert main(["validate", *inputs]) == 1
        assert f"{bad}: error: {error}" in capsys.readouterr().out.splitlines()
        assert main(["pipeline", *inputs, "--out", str(tmp_path / "bulletin.txt")]) == 1
        assert capsys.readouterr().err == f"fusecast: error [{flag[2:]}] ({bad}): {error}\n"

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
        assert f"{bad}: error: entries[0]: key holds a lone surrogate" in capsys.readouterr().out
        assert main(_swap(pipeline_args(tmp_path), "--source", bad)) == 1
        _staged_error(capsys, "source", bad)


_DOCS = ("kb.json", "gfs.json", "ecmwf.json", "obs.json")
_STAGES = {"kb.json": "kb", "obs.json": "obs"}

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
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_end_in_staged_errors(tmp_path_factory, data):
    """Any mutation of the seaside documents exits 0 or 1 without a traceback,
    `validate` fails exactly when `pipeline` does, and its first `error:`
    line names the document and the cause at which `pipeline` stops."""
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
    validated, out, validate_err = _run(["validate", *inputs])
    status, _, err = _run(["pipeline", *inputs, "--out", str(tmp / "bulletin.txt")])
    assert status in (0, 1)
    assert "Traceback" not in err
    assert validated == status, (out, validate_err, err)
    errors = [line.split(": error: ", 1) for line in out.splitlines() if ": error: " in line]
    if errors:
        (path, cause), stage = errors[0], _STAGES.get(Path(errors[0][0]).name, "source")
        assert (validate_err, err) == ("", f"fusecast: error [{stage}] ({path}): {cause}\n")
    else:
        assert validate_err == err


def _mutate(data, draw):
    """`data` with one to four bytes replaced, often by bytes that are not UTF-8."""
    raw = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.one_of(
            st.integers(0, 255), st.sampled_from(b"\xff\xc3\x80\n,:>-=~%\"[]{}")))
    return bytes(raw)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_stage_inputs_end_in_staged_errors(tmp_path_factory, data):
    """A theory or a conclusions document with mutated bytes makes `reason`
    or `bulletin` exit 0 or 1, never raise."""
    tmp = tmp_path_factory.mktemp("stage")
    theory = tmp / "theory.dfl"
    theory.write_bytes(_mutate(RAIN_THEORY.read_bytes(), data.draw))
    concls = tmp / "conclusions.json"
    concls.write_bytes(_mutate(RAIN_CONCLUSIONS.read_bytes(), data.draw))
    for argv in (["reason", str(theory), "--out", str(tmp / "out.json")],
                 ["bulletin", str(concls), "--out", str(tmp / "out.text")]):
        status, _, err = _run(argv)
        assert status in (0, 1)
        assert "Traceback" not in err


def _fusecast_under_ascii(argv):
    """`python -m fusecast` with stdout and stderr encoded as ASCII."""
    return run_python(["-m", "fusecast", *argv], "ascii", PYTHONIOENCODING="ascii")


class TestOutputEncoding:
    """Text that stdout cannot encode ends in one line on stderr, not a traceback."""

    def test_pipeline_term_on_stdout(self, tmp_path):
        doc = json.loads((SEASIDE / "gfs.json").read_text())
        doc["entries"] = [{"condition": "temperature", "location": "North",
                           "valid_at": "h1", "magnitude": 25}]
        gfs = tmp_path / "gfs.json"
        gfs.write_text(json.dumps(doc))
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(r'{"temperature": [[null, "Tr\u00e8s chaud"]]}')
        done = _fusecast_under_ascii(["pipeline", *_swap(_seaside_inputs(), "--source", gfs),
                                      "--lexicon", str(lexicon)])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("fusecast: error [output]: 'ascii' codec can't encode")
        assert done.stderr.count("\n") == 1

    def test_validate_path_on_stdout(self, tmp_path):
        kb = tmp_path / "kb-\u00e9t\u00e9.json"
        kb.write_bytes((SEASIDE / "kb.json").read_bytes())
        done = _fusecast_under_ascii(["validate", *_swap(_seaside_inputs(), "--kb", kb)])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("fusecast: error [output] (")
        assert done.stderr.count("\n") == 1


def test_main_leaves_the_gc_policy_alone(tmp_path):
    """Only the process entry point (`fusecast.__main__.run`) tunes the
    collector; tests and in-process callers keep theirs."""
    before = gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()
    assert main(pipeline_args(tmp_path)) == 0
    assert main(["validate", *_seaside_inputs()]) == 0
    assert (gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()) == before
