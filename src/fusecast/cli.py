"""Command-line pipeline: source maps -> theory -> conclusions -> bulletin.

Subcommands mirror the stage boundaries so each stage can be pinned and
inspected on its own:

    fusecast tournament  --source gfs.json --source ecmwf.json --obs obs.json \
                         --kb kb.json --now h0 --out theory.dfl
    fusecast reason      theory.dfl --out conclusions.json
    fusecast bulletin    conclusions.json --format text --out bulletin.txt
    fusecast pipeline    --source ... --obs ... --kb ... --now h0 --out bulletin.txt
    fusecast validate    --source ... --obs ... --kb ... --now h0

`pipeline` is byte-equivalent to the three stages composed through dump files.
`validate` runs `pipeline`'s code on the same inputs and writes nothing.

Each command imports the stage modules it runs where it runs them, so
`reason` loads neither the tournament nor the bulletin layer. Every stage
call goes through its module (`reasoner.conclusions(...)`), never a name
bound here.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import ForecastError
from .model import TimeRef, parse_timeref


class _StageError(Exception):
    """A failure in one stage, at an input file or command-line flag `path`."""

    def __init__(self, stage: str, path: Union[Path, str, None], cause: Exception):
        self.cause = cause
        where = f" ({path})" if path else ""
        super().__init__(f"[{stage}]{where}: {cause}")


@contextmanager
def _stage(stage: str, path: Union[Path, str, None] = None):
    try:
        yield
    except (ForecastError, OSError, UnicodeError) as exc:  # not UTF-8, or not encodable
        raise _StageError(stage, path, exc) from exc


def _read(path: Path) -> bytes:
    return Path(path).read_bytes()


@contextmanager
def _output(path: Optional[Path]):
    """The text stream a command writes to: the file at `path`, UTF-8 with
    newlines as given, or stdout when there is none."""
    with _stage("output", path):
        if path is None:
            yield sys.stdout
        else:
            with open(path, "w", encoding="utf-8", newline="") as out:
                yield out


def _write(path: Optional[Path], text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _inputs(args) -> list[tuple[str, Path]]:
    """(stage, path) of each document flag given, in the order every command
    reads them; only --source repeats."""
    flags = vars(args)
    return [(stage, path) for stage in ("kb", "source", "obs", "lexicon", "templates")
            for path in (flags.get(stage, []) if stage == "source" else [flags.get(stage)])
            if path is not None]


def _load(stage: str, path: Path, now: Optional[TimeRef]):
    """One input document as every command reads it: the knowledge base, a
    lexicon or template override, or a source or observation map's
    assertions placed on `now`'s axis."""
    with _stage(stage, path):
        data = _read(path)
        if stage == "kb":
            from . import kb
            return kb.load_kb(data)
        if stage == "lexicon":
            from . import lexicon
            return lexicon.load_lexicon(data)
        if stage == "templates":
            from . import bulletin
            return bulletin.load_templates(data)
        from . import ingest
        return ingest.check_times(ingest.parse_source_map(data, stage == "obs"), now)


class _Documents:
    """Every document a command was given, from loaded (stage, table) pairs:
    the maps' assertions in reading order, the knowledge base, and each
    override, None when not given."""

    def __init__(self, loaded: list[tuple[str, object]]):
        self.lams = [lam for stage, lams in loaded if stage in ("source", "obs") for lam in lams]
        tables = dict(loaded)
        self.kb = tables.get("kb")
        self.lexicon = tables.get("lexicon")
        self.templates = tables.get("templates")


def _load_all(args, now: Optional[TimeRef]) -> _Documents:
    """Every document the command was given; stops at the first that fails."""
    return _Documents([(stage, _load(stage, path, now)) for stage, path in _inputs(args)])


def _forecast(docs: _Documents, now: TimeRef, out_format: str = "text",
              emit_theory: Optional[Path] = None,
              emit_conclusions: Optional[Path] = None) -> str:
    """tournament -> reason -> bulletin on loaded inputs, composed as the
    three stage commands are; `pipeline` writes the bulletin, `validate`
    drops it. Each stage's input is let go once the next stage has it, so
    the peak is the largest stage, not their sum."""
    from . import reasoner, theory, tournament

    with _stage("tournament"):
        built = tournament.build_theory(docs.lams, docs.kb, now)
    docs.lams = None
    if emit_theory is not None:
        _write(emit_theory, theory.serialize_theory(built))
    with _stage("reason"):
        concls = reasoner.conclusions(built)
    del built
    if emit_conclusions is not None:
        with _output(emit_conclusions) as out:
            reasoner.conclusions_to_json(concls, out)
    return _render_bulletin(concls, None, now, docs, out_format)


def _render_bulletin(conclusions: reasoner.ConclusionSet, conclusions_path: Optional[Path],
                     now: Optional[TimeRef], docs: _Documents, out_format: str) -> str:
    from . import bulletin

    lexicon = bulletin.DEFAULT_LEXICON if docs.lexicon is None else docs.lexicon
    templates = bulletin.DEFAULT_TEMPLATES if docs.templates is None else docs.templates
    with _stage("bulletin", conclusions_path):
        doc = bulletin.render_sharp(bulletin.extract_scenario(conclusions), lexicon,
                                    None if now is None else str(now))
        return bulletin.render_document(doc, out_format, templates)


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

class _Once(argparse.Action):
    """Store a document flag's path, refusing a second copy of the flag:
    argparse would keep the last and never read the first."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "may be given once")
        setattr(namespace, self.dest, values)


def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--source", action="append", default=[], type=Path,
                   metavar="PATH", help="model source map (repeatable)", required=True)
    p.add_argument("--obs", action=_Once, type=Path, metavar="PATH",
                   help="observation map; its method must be O")
    p.add_argument("--kb", action=_Once, type=Path, metavar="PATH", required=True,
                   help="knowledge base document")
    p.add_argument("--now", type=str, default=None,
                   help="reference time (ISO-8601 or h0); default: current UTC")


def _add_bulletin_args(p: argparse.ArgumentParser):
    p.add_argument("--lexicon", action=_Once, type=Path, metavar="PATH",
                   help="lexicon override document")
    p.add_argument("--templates", action=_Once, type=Path, metavar="PATH",
                   help="smooth-template override document")


def _parse_now(text: Optional[str]) -> TimeRef:
    if text is None:
        from datetime import datetime, timezone

        return TimeRef(instant=datetime.now(timezone.utc))
    with _stage("args", "--now"):
        return parse_timeref(text)


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
    p.add_argument("--format", choices=("text", "html", "json"), default="text")
    p.add_argument("--now", type=str, default=None,
                   help="generated-at stamp for the bulletin header")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("pipeline", help="all stages end to end")
    _add_source_args(p)
    _add_bulletin_args(p)
    p.add_argument("--format", choices=("text", "html", "json"), default="text")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--emit-theory", type=Path, default=None, metavar="PATH",
                   help="also dump the generated theory")
    p.add_argument("--emit-conclusions", type=Path, default=None, metavar="PATH",
                   help="also dump the reasoner conclusions")

    p = sub.add_parser("validate", help="run pipeline on the inputs, writing nothing")
    _add_source_args(p)
    _add_bulletin_args(p)

    return parser


def _cmd_tournament(args) -> int:
    from . import theory, tournament

    now = _parse_now(args.now)
    docs = _load_all(args, now)
    with _stage("tournament"):
        built = tournament.build_theory(docs.lams, docs.kb, now)
    del docs
    _write(args.out, theory.serialize_theory(built))
    return 0


def _cmd_reason(args) -> int:
    from . import reasoner, theory

    with _stage("reason", args.theory):
        concls = reasoner.conclusions(theory.parse_theory(_read(args.theory).decode("utf-8")))
    with _output(args.out) as out:
        reasoner.conclusions_to_json(concls, out)
    return 0


def _cmd_bulletin(args) -> int:
    from . import reasoner

    now = None if args.now is None else _parse_now(args.now)
    docs = _load_all(args, now)
    with _stage("bulletin", args.conclusions):
        concls = reasoner.conclusions_from_json(_read(args.conclusions))
    _write(args.out, _render_bulletin(concls, args.conclusions, now, docs, args.format))
    return 0


def _cmd_pipeline(args) -> int:
    """All stages, composed as `tournament`, `reason` and `bulletin` are."""
    now = _parse_now(args.now)
    _write(args.out, _forecast(_load_all(args, now), now, args.format,
                               args.emit_theory, args.emit_conclusions))
    return 0


def _cmd_validate(args) -> int:
    """`pipeline` without output: one line per input document, read as
    `pipeline` reads it; once every one passes, the rest of `pipeline` on
    them. So it fails exactly where `pipeline` would, for the same cause."""
    now = _parse_now(args.now)
    inputs, loaded = _inputs(args), []
    for stage, path in inputs:
        try:
            loaded.append((stage, _load(stage, path, now)))
            line = f"{path}: ok"
        except _StageError as exc:
            line = f"{path}: error: {exc.cause}"
        with _stage("output", path):
            print(line)
    if len(loaded) < len(inputs):
        return 1
    docs = _Documents(loaded)
    del loaded  # so the tournament's input goes once the tournament returns
    _forecast(docs, now)
    return 0


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


if __name__ == "__main__":
    sys.exit(main())
