"""Every command-line case, run as a user runs it: `python -m fusecast` under
`-X dev -W error` in a fresh interpreter and a folder of its own, so the exit
status, stderr and the output bytes are checked where the shell sees them."""

from string import Template
from typing import NamedTuple, Optional

import pytest

from conftest import FIXTURES, run_python

FOLDERS = {"S": FIXTURES / "seaside", "R": FIXTURES / "rain", "G": FIXTURES / "golden"}
MAPS = "--source $S/gfs.json --source $S/ecmwf.json --obs $S/obs.json"
SEASIDE = f"--kb $S/kb.json {MAPS} --now h0"


class Row(NamedTuple):
    """One run; `argv` is split on spaces, and `$S`, `$R` and `$G` name the
    seaside, rain and golden fixture folders."""

    argv: str
    status: int = 0
    golden: dict = {}  # output file in the run's folder ("-": stdout) -> golden file
    stdout: Optional[str] = None  # a line stdout must hold
    stderr: str = ""  # all of stderr, one line; for argparse's status 2, a part of it
    files: dict = {}  # documents written into the run's folder first, one line each


def _refused(case: str, stage: str, flags: str, doc: str, text: str, error: str) -> dict:
    """`validate` and `pipeline` refusing the written document `doc` for one
    cause: `validate` on the document's stdout line, `pipeline` on stderr."""
    return {f"validate-{stage}-{case}": Row(f"validate {flags}", 1, files={doc: text},
                                            stdout=f"{doc}: error: {error}"),
            f"pipeline-{stage}-{case}": Row(f"pipeline {flags}", 1, files={doc: text},
                                            stderr=f"fusecast: error [{stage}] ({doc}): {error}")}


_BAD_MAP = ('{"method": "GFS", "generated_at": "h0", "entries": [{"condition": "cloudiness", '
            '"location": "North", "valid_at": "h%d", "magnitude": %d}]}')
_NOT_AN_OBS = "method: must be 'O' in an observation map, not 'GFS'"
_ACCURACIES = '"GFS": {"1": 0.45}, "ECMWF": {"1": 0.85}'

ROWS = {
    "validate-seaside": Row(f"validate {SEASIDE}"),
    **{f"pipeline-{f}": Row(f"pipeline {SEASIDE} --format {f} --out p.{f}",
                            golden={f"p.{f}": f"seaside_pipeline.{f}"}) for f in ("json", "text")},
    "tournament": Row(f"tournament {SEASIDE} --out t.dfl", golden={"t.dfl": "seaside_theory.dfl"}),
    # Under an absolute --now every symbolic reference is placed; the theory is the same.
    "tournament-absolute-now": Row(
        f"tournament --kb $S/kb.json {MAPS} --now 2026-08-08T06:00:00Z --out ta.dfl",
        golden={"ta.dfl": "seaside_theory.dfl"}),
    **{f"reason-rain-{name}": Row(f"reason $R/{name}_theory.dfl --out c.json",
                                  golden={"c.json": "rain_conclusions.json"})
       for name in ("reference", "spaced")},
    **{f"bulletin-rain-{f}": Row(f"bulletin $G/rain_conclusions.json --now h0 --format {f} "
                                 f"--out b.{f}", golden={f"b.{f}": f"rain_bulletin.{f}"})
       for f in ("text", "html", "json")},
    "reason-seaside": Row("reason $G/seaside_theory.dfl --out c.json",
                          golden={"c.json": "seaside_conclusions.json"}),
    "reason-seaside-stdout": Row("reason $G/seaside_theory.dfl",
                                 golden={"-": "seaside_conclusions.json"}),
    # The seaside theory restaged through `reason` and `bulletin` gives the pipeline's bytes.
    **{f"bulletin-seaside-{f}": Row(
        f"bulletin $G/seaside_conclusions.json --now h0 --format {f} --out b.{f}",
        golden={f"b.{f}": f"seaside_pipeline.{f}"}) for f in ("text", "html", "json")},
    "pipeline-html-emit-conclusions": Row(
        f"pipeline {SEASIDE} --format html --emit-conclusions c.json --out p.html",
        golden={"p.html": "seaside_pipeline.html", "c.json": "seaside_conclusions.json"}),
    # A staged error: `validate` prints the document's line and exits 1;
    # every other command exits 1 with one line on stderr.
    "reason-blank-body-item": Row(
        "reason bad.dfl", 1, files={"bad.dfl": "r1: a,,b => c"},
        stderr="fusecast: error [reason] (bad.dfl): line 1, column 7: bad literal: ''"),
    "reason-no-such-file": Row("reason no-such.dfl", 1, stderr="fusecast: error [reason] "
                               "(no-such.dfl): [Errno 2] No such file or directory: 'no-such.dfl'"),
    **_refused("magnitude", "source", "--kb $S/kb.json --source bad.json --now h0", "bad.json",
               _BAD_MAP % (1, 120), "entries[0]: cloudiness is a percentage; magnitude 120 > 100"),
    # An --obs map whose method is a model's, with one entry or none.
    **_refused("model-method", "obs", "--kb $S/kb.json --source $S/ecmwf.json --obs bad.json "
               "--now h0", "bad.json", _BAD_MAP % (0, 5), _NOT_AN_OBS),
    **_refused("empty-model-method", "obs", "--kb $S/kb.json --source $S/ecmwf.json --obs "
               "empty.json --now h0", "empty.json",
               '{"method": "GFS", "generated_at": "h0", "entries": []}', _NOT_AN_OBS),
    **_refused("repeated-key", "lexicon", f"{SEASIDE} --lexicon bad.json", "bad.json",
               '{"sea": [[null, "Calm"]], "sea": [[null, "Rough"]]}', "sea: duplicate key"),
    **_refused("lowercase-clauses", "templates", f"{SEASIDE} --templates t.json", "t.json",
               '{"lowercase_clauses": true}',
               "lowercase_clauses: unknown condition kind 'lowercase_clauses'"),
    "pipeline-templates": Row(f"pipeline {SEASIDE} --templates t.json",
                              files={"t.json": '{"sea": "sea state {term}"}'},
                              stdout="Sea: sea state Slight."),
    # Two documents of one model run (one method, one generation time) that
    # give one slot two values: each passes alone, the tournament refuses both.
    **{f"{command}-one-model-run-two-values": Row(
        f"{command} --kb $S/kb.json --source a.json --source b.json --now h0", 1,
        files={"a.json": _BAD_MAP % (1, 20), "b.json": _BAD_MAP % (1, 90)},
        stderr="fusecast: error [tournament]: GFS generated at h0 gives two values for "
               "cloudiness @ North @ h1: 20 and 90")
       for command in ("validate", "pipeline")},
    # `validate` names a KB's or a lexicon's fault at its own key.
    "validate-kb-horizon-01": Row(
        f"validate --kb kb01.json {MAPS} --now h0", 1,
        files={"kb01.json": '{"accuracies": {"GFS": {"1": 0.45, "01": 0.4}, '
                            '"ECMWF": {"1": 0.85}}}'},
        stdout="kb01.json: error: accuracies.GFS.01: duplicate (method, horizon) record"),
    "validate-lexicon-falling-bounds": Row(
        f"validate {SEASIDE} --lexicon lexfall.json", 1, files={"lexfall.json": '{"cloudiness": '
        '[[40, "Clear or Sunny Skies"], [10, "Partly Cloudy"], [null, "Overcast"]]}'},
        stdout="lexfall.json: error: cloudiness[1]: band bounds must increase"),
    "validate-kb-reserved-method": Row(
        f"validate --kb kbxr0.json {MAPS} --now h0", 1,
        files={"kbxr0.json": f'{{"accuracies": {{{_ACCURACIES}, "XR0": {{"1": 0.5}}}}}}'},
        stdout="kbxr0.json: error: accuracies.XR0: method id 'XR0' lowers onto the reserved "
               "tag 'xr0'"),
    "validate-kb-sea-override-off-sea": Row(
        f"validate --kb kbsea.json {MAPS} --now h0", 1,
        files={"kbsea.json": f'{{"accuracies": {{{_ACCURACIES}}}, "overrides": [{{"winner": '
                             '"GFS", "loser": "ECMWF", "condition": "sea", "location": "North"}]}'},
        stdout="kbsea.json: error: overrides[0].location: sea atoms imply location 'Sea', "
               "got 'North'"),
    "bulletin-contradictory-conclusions": Row(
        "bulletin c.json --now h0", 1,
        files={"c.json": '{"+d": ["CNorth_h1_77"], "-d": ["CNorth_h1_77"]}'},
        stderr="fusecast: error [bulletin] (c.json): -d: literal 'CNorth_h1_77' is also "
               "under '+d'"),
    "bulletin-definite-not-defeasible": Row(
        "bulletin c.json --now h0", 1,
        files={"c.json": '{"+D": ["CNorth_h1_77"], "+d": []}'},
        stderr="fusecast: error [bulletin] (c.json): +D: literal 'CNorth_h1_77' is not "
               "under '+d'"),
    # argparse: a command line without --source, and --kb given twice.
    **{f"{command}-without-source": Row(f"{command} --kb $S/kb.json --now h0", 2,
                                        stderr="the following arguments are required: --source")
       for command in ("validate", "pipeline")},
    "validate-kb-twice": Row(f"validate --kb no-such.json {SEASIDE}", 2,
                             stderr="argument --kb: may be given once"),
}


@pytest.mark.parametrize("name", ROWS)
def test_command_line(name, tmp_path):
    row = ROWS[name]
    for doc, text in row.files.items():
        (tmp_path / doc).write_text(text + "\n", encoding="utf-8")
    argv = [Template(arg).substitute(FOLDERS) for arg in row.argv.split(" ")]
    done = run_python(["-X", "dev", "-W", "error", "-m", "fusecast", *argv], None, tmp_path)
    stderr = done.stderr.decode("utf-8")
    assert done.returncode == row.status, stderr
    for out, golden in row.golden.items():
        data = done.stdout if out == "-" else (tmp_path / out).read_bytes()
        assert data == (FOLDERS["G"] / golden).read_bytes(), out
    if row.stdout is not None:
        assert row.stdout in done.stdout.decode("utf-8").splitlines()
    if row.status == 2:
        assert row.stderr in stderr
    else:
        assert stderr == (f"{row.stderr}\n" if row.stderr else "")
