"""Per-layer spans for the traced run, recorded from outside the program.

`interpose(recorder)` swaps each layer's public function, in the module
namespaces the CLI and the other layers call it through, for a wrapper that
records a span (and the layer's counts) around the call, and restores the
originals on exit. Nothing under src/ changes, and the CLI runs its own
composition, so the traced outputs are the CLI's outputs.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from fusecast import bulletin, cli, ingest, kb, reasoner, theory, tournament

ROOT = "cli.main"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    command: int
    name: str
    start: float
    end: float


def _count_parse(counts, args, result):
    counts["assertions"] += len(result)


def _count_sift(counts, args, result):
    counts["sift_in"] += len(args[0])
    counts["sift_kept"] += len(result)


def _count_build(counts, args, result):
    counts["rules"] += len(result.rules)
    counts["priorities"] += len(result.superiority)


def _count_serialize(counts, args, result):
    counts["theory_bytes"] += len(result.encode("utf-8"))


def _count_parse_theory(counts, args, result):
    counts["theory_bytes"] += len(args[0].encode("utf-8"))


def _count_conclusions(counts, args, result):
    counts["literals"] += len(result.plus_definite) + len(result.minus_definite)
    counts["undetermined"] += len(result.undetermined)


def _count_extract(counts, args, result):
    counts["decoded"] += sum(1 for lit in args[0].plus_defeasible if lit.positive)
    counts["entries"] += len(result.entries)


#: (module, attribute, span name, count hook). validate_theory is called
#: through three namespaces: tournament.build_theory, reasoner.conclusions
#: and theory.parse_theory each look it up in their own module.
TARGETS = (
    (kb, "load_kb", "kb.load", None),
    (ingest, "parse_source_map", "ingest.parse", _count_parse),
    (tournament, "build_theory", "tournament.build", _count_build),
    (tournament, "sift", "tournament.sift", _count_sift),
    (tournament, "validate_theory", "theory.validate", None),
    (reasoner, "validate_theory", "theory.validate", None),
    (theory, "validate_theory", "theory.validate", None),
    (theory, "serialize_theory", "theory.serialize", _count_serialize),
    (theory, "parse_theory", "theory.parse", _count_parse_theory),
    (reasoner, "conclusions", "reasoner.conclusions", _count_conclusions),
    (reasoner, "conclusions_to_json", "reasoner.to_json", None),
    (reasoner, "conclusions_from_json", "reasoner.from_json", None),
    (bulletin, "extract_scenario", "bulletin.extract", _count_extract),
    (bulletin, "render_sharp", "bulletin.sharp", None),
    (bulletin, "classify", "lexicon.classify", None),
    (bulletin, "render_document", "bulletin.render", None),
)

_BULLETIN = {"bulletin.extract", "bulletin.sharp", "lexicon.classify", "bulletin.render"}
_REASON = {"theory.validate", "reasoner.conclusions", "reasoner.to_json"}

#: Spans each CLI subcommand must produce; a missing one means the CLI no
#: longer calls that layer through the interposed name.
EXPECTED = {
    "pipeline": {"kb.load", "ingest.parse", "tournament.build", "tournament.sift",
                 "theory.serialize"} | _REASON | _BULLETIN,
    "reason": {"theory.parse"} | _REASON,
    "bulletin": {"reasoner.from_json"} | _BULLETIN,
}


class Recorder:
    """Spans and counts of the traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.command = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, self.command, name, start, end)
        if count is not None:
            count(self.counts, args, result)
        return result

    def command_span(self, argv: list[str]) -> int:
        """One CLI command, run in process as the root of its spans."""
        self.command += 1
        return self.call(ROOT, cli.main, (argv,))

    def reset_counts(self) -> None:
        self.counts = {key: 0 for key in (
            "assertions", "sift_in", "sift_kept", "rules", "priorities",
            "theory_bytes", "literals", "undetermined", "decoded", "entries")}


def _wrapper(recorder: Recorder, fn, name: str, count):
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, count)
    return traced


@contextmanager
def interpose(recorder: Recorder):
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for (module, attr, name, count), (_, _, fn) in zip(TARGETS, saved):
            setattr(module, attr, _wrapper(recorder, fn, name, count))
        yield recorder
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


@dataclass
class OpTrace:
    """Per-layer totals of one traced operation."""

    self_s: dict[str, float]    # layer -> self time (span minus its children)
    total_s: dict[str, float]   # layer -> inclusive time
    layers_s: float             # time inside any layer span
    command_s: float            # time inside the root spans
    counts: dict[str, int]


def summarize(spans: list[Span], counts: dict[str, int]) -> OpTrace:
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    roots = {span.id for span in spans if span.name == ROOT}
    layers = command = 0.0
    for span in spans:
        duration = span.end - span.start
        if span.name == ROOT:
            command += duration
            continue
        if span.parent in roots:
            layers += duration
        self_s[span.name] = self_s.get(span.name, 0.0) + duration - children.get(span.id, 0.0)
        total_s[span.name] = total_s.get(span.name, 0.0) + duration
    return OpTrace(self_s, total_s, layers, command, dict(counts))


def layer_metrics(ops: list[OpTrace], wall_s: float, setup_s: float, commands: int,
                  overhead_s: list[float]) -> dict[str, float]:
    """Medians over the traced operations of every per-layer metric.

    `wall_s` and `setup_s` come from the child-process runs; each of the
    operation's `commands` pays the set-up once. `overhead_s` holds traced
    minus untraced times of the same in-process operation.
    """
    med = statistics.median

    def self_time(name):
        return med(op.self_s.get(name, 0.0) for op in ops)

    def ratio(num, den):
        return med(op.counts[num] / op.counts[den] if op.counts[den] else 0.0 for op in ops)

    def count(name):
        return med(op.counts[name] for op in ops)

    conclusions_s = self_time("reasoner.conclusions")
    literals = count("literals")
    return {
        "kb.load_s": self_time("kb.load"),
        "ingest.parse_s": self_time("ingest.parse"),
        "ingest.assertions": count("assertions"),
        "tournament.sift_s": self_time("tournament.sift"),
        "tournament.kept_ratio": ratio("sift_kept", "sift_in"),
        "tournament.build_s": med(op.total_s.get("tournament.build", 0.0) for op in ops),
        "tournament.fold_emit_s": self_time("tournament.build"),
        "tournament.rules": count("rules"),
        "tournament.priorities": count("priorities"),
        "theory.validate_s": self_time("theory.validate"),
        "theory.serialize_s": self_time("theory.serialize"),
        "theory.parse_s": self_time("theory.parse"),
        "theory.bytes": count("theory_bytes"),
        "reasoner.conclusions_s": conclusions_s,
        "reasoner.literals": literals,
        "reasoner.undetermined": count("undetermined"),
        "reasoner.us_per_literal": conclusions_s * 1e6 / literals if literals else 0.0,
        "reasoner.to_json_s": self_time("reasoner.to_json"),
        "reasoner.from_json_s": self_time("reasoner.from_json"),
        "bulletin.extract_s": self_time("bulletin.extract"),
        "bulletin.scenario_ratio": ratio("entries", "decoded"),
        "bulletin.sharp_s": self_time("bulletin.sharp"),
        "lexicon.classify_s": self_time("lexicon.classify"),
        "bulletin.render_s": self_time("bulletin.render"),
        "cli.other_s": wall_s - commands * setup_s - med(op.layers_s for op in ops),
        "trace.overhead_s": med(overhead_s),
    }
