"""Command-line pipeline: source maps -> theory -> conclusions -> bulletin.

Subcommands mirror the stage boundaries so each stage can be pinned and
inspected on its own:

    fusecast tournament  --source gfs.json --source ecmwf.json --obs obs.json \
                         --kb kb.json --now h0 --out theory.dfl
    fusecast reason      theory.dfl --out conclusions.json
    fusecast bulletin    conclusions.json --format text --out bulletin.txt
    fusecast pipeline    --source ... --obs ... --kb ... --now h0 --out bulletin.txt
    fusecast validate    --kb kb.json --source gfs.json

`pipeline` is byte-equivalent to the three stages composed through dump files.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence, Union

from . import bulletin as bulletin_mod
from . import ingest, kb as kb_mod, lexicon as lexicon_mod, reasoner, theory as theory_mod
from . import tournament
from .errors import ForecastError
from .inputs import read_json_number
from .model import TimeRef, parse_timeref


class _StageError(Exception):
    """A failure in one stage; `path` names its input file or command-line flag."""

    def __init__(self, stage: str, path: Union[Path, str, None], cause: Exception):
        self.stage = stage
        self.path = path
        self.cause = cause
        where = f" ({path})" if path else ""
        super().__init__(f"[{stage}]{where}: {cause}")


@contextmanager
def _stage(stage: str, path: Union[Path, str, None] = None):
    try:
        yield
    except (ForecastError, OSError) as exc:
        raise _StageError(stage, path, exc) from exc


def _read(path: Path) -> bytes:
    return Path(path).read_bytes()


def _write(path: Optional[Path], data: bytes) -> None:
    if path is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(path).write_bytes(data)


def _load_kb(path: Path, min_micros: Optional[int]) -> kb_mod.KnowledgeBase:
    with _stage("kb", path):
        knowledge = kb_mod.load_kb(_read(path))
        if min_micros is not None:
            knowledge = kb_mod.KnowledgeBase(
                knowledge.accuracies, knowledge.overrides, min_micros)
    return knowledge


def _load_lams(sources: Sequence[Path], obs: Optional[Path], now: TimeRef):
    lams = []
    for stage, path in [("source", p) for p in sources] + ([("obs", obs)] if obs else []):
        with _stage(stage, path):
            lams.extend(ingest.check_times(ingest.parse_source_map(_read(path)), now))
    return lams


def _render_bulletin(
    conclusions: reasoner.ConclusionSet,
    now: Optional[TimeRef],
    lexicon_path: Optional[Path],
    templates_path: Optional[Path],
    out_format: str,
) -> bytes:
    lex = lexicon_mod.DEFAULT_LEXICON
    if lexicon_path is not None:
        with _stage("lexicon", lexicon_path):
            lex = lexicon_mod.load_lexicon(_read(lexicon_path))
    templates = bulletin_mod.DEFAULT_TEMPLATES
    if templates_path is not None:
        with _stage("templates", templates_path):
            templates = bulletin_mod.load_templates(_read(templates_path))
    with _stage("bulletin"):
        scenario = bulletin_mod.extract_scenario(conclusions)
        # The header is read from the conclusions alone, so the bulletin stage
        # names the same sources standalone as inside the pipeline.
        header = bulletin_mod.BulletinHeader(
            generated_at=None if now is None else str(now),
            sources=scenario.sources,
        )
        doc = bulletin_mod.render_sharp(scenario, lex, header)
        return bulletin_mod.render_document(doc, out_format, templates)


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _add_source_args(p: argparse.ArgumentParser, need_sources: bool = True):
    p.add_argument("--source", action="append", default=[], type=Path,
                   metavar="PATH", help="model source map (repeatable)",
                   required=need_sources)
    p.add_argument("--obs", type=Path, metavar="PATH",
                   help="observation map (method O)")
    p.add_argument("--kb", type=Path, metavar="PATH", required=True,
                   help="knowledge base document")
    p.add_argument("--now", type=str, default=None,
                   help="reference time (ISO-8601 or h0); default: current UTC")
    p.add_argument("--min-accuracy", type=str, default=None, metavar="NUM",
                   help="override the KB reliability threshold")


def _add_bulletin_args(p: argparse.ArgumentParser):
    p.add_argument("--lexicon", type=Path, metavar="PATH",
                   help="lexicon override document")
    p.add_argument("--templates", type=Path, metavar="PATH",
                   help="smooth-template override document")
    p.add_argument("--format", choices=("text", "html", "json"), default="text")


def _parse_now(text: Optional[str]) -> TimeRef:
    if text is None:
        from datetime import datetime, timezone

        return TimeRef(instant=datetime.now(timezone.utc))
    with _stage("args", "--now"):
        return parse_timeref(text)


def _parse_min_accuracy(text: Optional[str]) -> Optional[int]:
    """The --min-accuracy threshold in millionths, spelled as in a KB document."""
    if text is None:
        return None
    with _stage("args", "--min-accuracy"):
        return read_json_number(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusecast",
        description="Fuse multi-model weather forecasts through defeasible reasoning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tournament", help="source maps -> defeasible theory")
    _add_source_args(p)
    p.add_argument("--out", type=Path, default=None, help="theory output path")

    p = sub.add_parser("reason", help="theory -> proof-tag conclusions")
    p.add_argument("theory", type=Path, help="theory file")
    p.add_argument("--out", type=Path, default=None, help="conclusions JSON path")

    p = sub.add_parser("bulletin", help="conclusions -> rendered bulletin")
    p.add_argument("conclusions", type=Path, help="conclusions JSON file")
    _add_bulletin_args(p)
    p.add_argument("--now", type=str, default=None,
                   help="generated-at stamp for the bulletin header")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("pipeline", help="all stages end to end")
    _add_source_args(p)
    _add_bulletin_args(p)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--emit-theory", type=Path, default=None, metavar="PATH",
                   help="also dump the generated theory")
    p.add_argument("--emit-conclusions", type=Path, default=None, metavar="PATH",
                   help="also dump the reasoner conclusions")
    p.add_argument("--timings", action="store_true",
                   help="print a stage timing summary to stderr")

    p = sub.add_parser("validate", help="lint source maps and the KB")
    _add_source_args(p, need_sources=False)

    return parser


def _cmd_tournament(args) -> int:
    now = _parse_now(args.now)
    knowledge = _load_kb(args.kb, _parse_min_accuracy(args.min_accuracy))
    lams = _load_lams(args.source, args.obs, now)
    with _stage("tournament"):
        built = tournament.build_theory(lams, knowledge, now)
    _write(args.out, theory_mod.serialize_theory(built).encode("utf-8"))
    return 0


def _cmd_reason(args) -> int:
    with _stage("reason", args.theory):
        parsed = theory_mod.parse_theory(_read(args.theory).decode("utf-8"))
        concls = reasoner.conclusions(parsed)
    _write(args.out, reasoner.conclusions_to_json(concls))
    return 0


def _cmd_bulletin(args) -> int:
    with _stage("bulletin", args.conclusions):
        concls = reasoner.conclusions_from_json(_read(args.conclusions))
    rendered = _render_bulletin(
        concls, _parse_now(args.now) if args.now else None,
        args.lexicon, args.templates, args.format)
    _write(args.out, rendered)
    return 0


def _cmd_pipeline(args) -> int:
    """All stages, composed as `tournament`, `reason` and `bulletin` are."""
    now = _parse_now(args.now)
    min_accuracy = _parse_min_accuracy(args.min_accuracy)
    timings: list[tuple[str, float]] = []

    def timed(stage, fn):
        start = time.perf_counter()
        result = fn()
        timings.append((stage, time.perf_counter() - start))
        return result

    knowledge = timed("kb", lambda: _load_kb(args.kb, min_accuracy))
    lams = timed("ingest", lambda: _load_lams(args.source, args.obs, now))
    with _stage("tournament"):
        built = timed("tournament", lambda: tournament.build_theory(lams, knowledge, now))
    if args.emit_theory is not None:
        _write(args.emit_theory, theory_mod.serialize_theory(built).encode("utf-8"))
    with _stage("reason"):
        concls = timed("reason", lambda: reasoner.conclusions(built))
    if args.emit_conclusions is not None:
        _write(args.emit_conclusions, reasoner.conclusions_to_json(concls))
    rendered = timed("bulletin", lambda: _render_bulletin(
        concls, now, args.lexicon, args.templates, args.format))
    _write(args.out, rendered)
    if args.timings:
        for stage, seconds in timings:
            print(f"{stage:>12}: {seconds * 1000:8.2f} ms", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    """Lint with the parsers `pipeline` uses, then, if every document passes,
    build the theory as it does, so it accepts exactly what `pipeline` accepts."""
    now = _parse_now(args.now)
    min_accuracy = _parse_min_accuracy(args.min_accuracy)
    status = 0
    try:
        knowledge = _load_kb(args.kb, min_accuracy)
        print(f"{args.kb}: ok")
    except _StageError as exc:
        print(f"{args.kb}: error: {exc.cause}")
        status = 1
    lams = []
    for path in list(args.source) + ([args.obs] if args.obs else []):
        try:
            data = _read(path)
        except OSError as exc:
            print(f"{path}: error: {exc}")
            status = 1
            continue
        found, diags = ingest.validate_source_map(data, now)
        lams += found
        if not diags:
            print(f"{path}: ok")
        for diag in diags:
            print(f"{path}: {diag}")
            if diag.severity == "error":
                status = 1
    if status == 0:
        with _stage("tournament"):
            tournament.build_theory(lams, knowledge, now)
    return status


_COMMANDS = {
    "tournament": _cmd_tournament,
    "reason": _cmd_reason,
    "bulletin": _cmd_bulletin,
    "pipeline": _cmd_pipeline,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _StageError as exc:
        print(f"fusecast: error {exc}", file=sys.stderr)
        return 1
    except (ForecastError, OSError) as exc:
        print(f"fusecast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
