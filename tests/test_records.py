"""Every record type is an immutable typing.NamedTuple with value equality,
a literal is its own text, built one way, and each command loads only the
fusecast modules it runs, and neither `dataclasses` nor `inspect` (nor
`html`, which only the HTML format uses)."""

import copy
import pickle
from datetime import datetime, timedelta, timezone

import pytest

from fusecast.bulletin import (
    DEFAULT_FRAGMENTS,
    BulletinDocument,
    BulletinEntry,
    BulletinHeader,
    BulletinSection,
    LocationBlock,
    ScenarioEntry,
    SmoothTemplates,
    WeatherScenario,
)
from fusecast.errors import SchemaError
from fusecast.kb import KnowledgeBase, load_kb
from fusecast.model import (
    AssertionalMap,
    Compass,
    Condition,
    Label,
    LabeledAssertionalMap,
    TimeRef,
    Value,
)
from fusecast.reasoner import ConclusionSet, conclusions, conclusions_from_json
from fusecast.theory import (
    DecodedAtom,
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    parse_theory,
    serialize_theory,
)
from fusecast.tournament import Prevalence, PrevalenceBasis, Winner, build_theory

from conftest import FIXTURES, run_python

SEASIDE = FIXTURES / "seaside"
GOLDEN = FIXTURES / "golden"


def _value():
    return Value(12_500_000, Compass.NE)


def _map():
    return AssertionalMap(Condition.WIND, "North", TimeRef(horizon=1), _value())


def _label():
    return Label("GFS", TimeRef(horizon=0))


def _rule():
    return Rule("r1", RuleKind.DEFEASIBLE, (Literal("a"),), Literal("-b"))


def _entry():
    return BulletinEntry(Condition.WIND, "Moderate Winds", "from North East", _value())


def _section():
    return BulletinSection(1, (LocationBlock("North", (_entry(),)),))


#: One maker per record type; each call builds a new record from equal fields.
#: A record that holds a dict is unhashable, as the dict is.
RECORDS = {
    "Value": (_value, True),
    "TimeRef": (lambda: TimeRef(instant=datetime(2026, 8, 8, 6, tzinfo=timezone.utc)), True),
    "AssertionalMap": (_map, True),
    "Label": (_label, True),
    "LabeledAssertionalMap": (lambda: LabeledAssertionalMap(_label(), _map()), True),
    "KnowledgeBase": (lambda: KnowledgeBase({"GFS": {1: 450_000}}), False),
    "Rule": (_rule, True),
    "DefeasibleTheory": (lambda: DefeasibleTheory((Literal("a"),), (_rule(),), ()), True),
    "DecodedAtom": (lambda: DecodedAtom(Condition.WIND, None, "North", 1, _value()), True),
    "ConclusionSet": (lambda: ConclusionSet(plus_defeasible=frozenset({Literal("a")})), True),
    "Prevalence": (lambda: Prevalence(Winner.FIRST, PrevalenceBasis.ACCURACY), True),
    "ScenarioEntry": (lambda: ScenarioEntry(Condition.WIND, "North", 1, _value(),
                                            "WNorth_h1_NE12.5"), True),
    "WeatherScenario": (lambda: WeatherScenario((), ("gfs",)), True),
    "BulletinEntry": (_entry, True),
    "LocationBlock": (lambda: LocationBlock("North", (_entry(),)), True),
    "BulletinSection": (_section, True),
    "BulletinHeader": (lambda: BulletinHeader("h0", ("ecmwf", "gfs")), True),
    "BulletinDocument": (lambda: BulletinDocument(BulletinHeader(), (_section(),)), True),
    "SmoothTemplates": (lambda: SmoothTemplates(lowercase_clauses=True), False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_with_value_equality(name):
    make, hashable = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b
    if hashable:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])
    with pytest.raises(AttributeError):
        a.extra = 1  # no instance dict: every class in the chain is slotted
    assert a == b
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_literal_is_its_own_text():
    """A slotted str subclass, not a record: the atom, or "-" and the atom."""
    pos, neg = Literal("CNorth_h1_75"), Literal("-CNorth_h1_75")
    assert (pos, neg) == ("CNorth_h1_75", "-CNorth_h1_75")
    assert isinstance(pos, str) and not hasattr(pos, "_fields")
    assert (pos.atom, pos.positive) == ("CNorth_h1_75", True)
    assert (neg.atom, neg.positive) == ("CNorth_h1_75", False)
    assert type(pos.atom) is str and type(neg.atom) is str
    assert pos.complement() == neg and neg.complement() == pos
    assert type(pos.complement()) is Literal and type(neg.complement()) is Literal
    assert type(str(neg)) is str and str(neg) == "-CNorth_h1_75"
    with pytest.raises(AttributeError):
        pos.extra = 1  # no instance dict
    for lit in (pos, neg):
        assert hash(lit) == hash(str(lit))
        assert {str(lit): 1}[lit] == 1 and {lit: 1}[str(lit)] == 1
        copies = [copy.copy(lit), copy.deepcopy(lit)]
        copies += [pickle.loads(pickle.dumps(lit, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is Literal and other == lit
            assert (other.atom, other.positive) == (lit.atom, lit.positive)


def test_literal_is_built_one_way(seaside_lams, seaside_kb, now_h0):
    """`Literal(text)` is str's own constructor, and every reader and the
    tournament hand back exact Literals, whichever path read the text."""
    assert Literal.__new__ is str.__new__
    with pytest.raises(TypeError):
        Literal("a", False)  # no (atom, positive) form
    built = build_theory(seaside_lams, seaside_kb, now_h0)
    spaced = (FIXTURES / "rain" / "spaced_theory.dfl").read_text(encoding="utf-8")
    theories = [built, parse_theory(serialize_theory(built)), parse_theory(spaced)]
    sets = [conclusions_from_json((GOLDEN / "seaside_conclusions.json").read_bytes()),
            conclusions_from_json(b'{"+d": [" - a", "b "], "-d": ["-c"]}'),
            conclusions(built)]
    lits = [lit for t in theories for lit in t.facts]
    lits += [lit for t in theories for rule in t.rules for lit in (*rule.body, rule.head)]
    lits += [lit for cs in sets for tags in cs for lit in tags]
    lits += [lit.complement() for lit in lits]
    assert len(lits) > 100
    assert {type(lit) for lit in lits} == {Literal}


def test_timeref_normalises_to_utc_whole_seconds():
    t = TimeRef(instant=datetime(2026, 8, 8, 14, 5, 7, 999_999,
                                 tzinfo=timezone(timedelta(hours=2))))
    assert t.instant == datetime(2026, 8, 8, 12, 5, 7, tzinfo=timezone.utc)
    assert t.instant.tzinfo is timezone.utc
    assert str(t) == "2026-08-08T12:05:07Z"
    assert TimeRef(instant=datetime(2026, 8, 8, 12, 5, 7)) == t  # naive reads as UTC


def test_knowledge_base_keeps_its_tables_and_load_kb_validates():
    accuracies = {"GFS": {2: 400_000, 1: 450_000}, "ECMWF": {1: 850_000}}
    pair = frozenset(("GFS", "ECMWF"))
    overrides = {(pair, None, None): "GFS", (pair, Condition.SEA, None): "ECMWF"}
    kb = KnowledgeBase(accuracies, overrides, 500_000)
    assert kb.accuracies is accuracies and kb.overrides is overrides  # neither copied nor sorted
    assert kb == KnowledgeBase({"ECMWF": {1: 850_000}, "GFS": {1: 450_000, 2: 400_000}},
                               dict(reversed(overrides.items())), 500_000)
    # The constructor checks nothing; load_kb checks the document it reads.
    with pytest.raises(SchemaError) as err:
        load_kb(b'{"accuracies": {"GFS": {"1": 0.000001, "01": 0.000002}}}')
    assert str(err.value) == "accuracies.GFS.01: duplicate (method, horizon) record"
    with pytest.raises(SchemaError) as err:
        load_kb(b'{"min_accuracy": 2}')
    assert str(err.value) == "min_accuracy: 2 outside [0, 1]"


def test_smooth_templates_hold_their_fragments():
    fragments = {Condition.SEA: "sea state {term}"}
    templates = SmoothTemplates(fragments)
    assert templates.fragments == {Condition.SEA: "sea state {term}"}
    assert SmoothTemplates().fragments == DEFAULT_FRAGMENTS


#: The fusecast modules `import fusecast.cli` loads, and those each command
#: loads besides: only the stage modules it runs.
CLI_MODULES = {"fusecast", "fusecast.cli", "fusecast.errors", "fusecast.inputs", "fusecast.model"}
REASON_MODULES = CLI_MODULES | {"fusecast.theory", "fusecast.reasoner"}
BULLETIN_MODULES = REASON_MODULES | {"fusecast.lexicon", "fusecast.bulletin"}
TOURNAMENT_MODULES = CLI_MODULES | {"fusecast.theory", "fusecast.ingest", "fusecast.kb",
                                    "fusecast.tournament"}

#: Modules no command needs: `dataclasses` and `inspect` cost about 10 ms of
#: start-up, `html` (with its entity table) 1.5 ms and `fractions` 1.3-1.7 ms.
UNUSED = {"dataclasses", "inspect", "html", "fractions"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Start-up is paid by every command, so importing the CLI loads no stage
    module and none of UNUSED."""
    done = run_python(["-c", "import sys; before = set(sys.modules); import fusecast.cli; "
                             "print(*sorted(set(sys.modules) - before))"])
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {name for name in added if name.startswith("fusecast")} == CLI_MODULES
    assert not added & UNUSED


@pytest.mark.parametrize("argv, loaded", [
    (["reason", GOLDEN / "seaside_theory.dfl"], REASON_MODULES),
    (["bulletin", GOLDEN / "seaside_conclusions.json", "--now", "h0"], BULLETIN_MODULES),
    (["tournament", "--kb", SEASIDE / "kb.json", "--source", SEASIDE / "gfs.json",
      "--source", SEASIDE / "ecmwf.json", "--obs", SEASIDE / "obs.json", "--now", "h0"],
     TOURNAMENT_MODULES),
], ids=["reason", "bulletin", "tournament"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    """Read from `python -X importtime -m fusecast ...` on the seaside fixtures."""
    done = run_python(["-X", "importtime", "-m", "fusecast", *map(str, argv),
                       "--out", str(tmp_path / "out")])
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert {name for name in imported if name.startswith("fusecast")} == loaded
    assert not imported & UNUSED
