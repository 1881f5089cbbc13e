import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.errors import SchemaError
from fusecast.model import parse_timeref
from fusecast.reasoner import (
    ConclusionSet,
    conclusions,
    conclusions_from_json,
    conclusions_to_json,
    oracle_conclusions,
)
from fusecast.theory import DefeasibleTheory, Literal, Rule, RuleKind, parse_theory
from fusecast.tournament import build_theory

from genutil import random_theory, random_two_model_inputs


def lit(s):
    return Literal(s.lstrip("-"), positive=not s.startswith("-"))


def lits(*ss):
    return frozenset(lit(s) for s in ss)


class TestDefiniteClosure:
    def test_fact_is_definite(self):
        cs = conclusions(parse_theory(">> A\n"))
        assert cs.plus_definite == lits("A")
        assert cs.minus_definite == lits("-A")

    def test_strict_chain(self):
        cs = conclusions(parse_theory(">> A\ns1: A -> B\n"))
        assert cs.plus_definite == lits("A", "B")

    def test_no_facts_no_strict_rules(self):
        cs = conclusions(parse_theory("r1: => A\nr2: B => C\n"))
        assert cs.plus_definite == frozenset()
        assert cs.minus_definite == lits("A", "-A", "B", "-B", "C", "-C")

    def test_defeasible_rules_do_not_feed_definite(self):
        cs = conclusions(parse_theory(">> A\nr1: A => B\n"))
        assert cs.plus_definite == lits("A")


class TestDefeasibleClosure:
    def test_unopposed_rule(self):
        t = parse_theory("r1: => A\n")
        cs = conclusions(t)
        assert lit("A") in cs.plus_defeasible
        assert lit("-A") in cs.minus_defeasible

    def test_unresolved_conflict_blocks_both(self):
        t = parse_theory("r1: => A\nr2: => -A\n")
        cs = conclusions(t)
        assert lit("A") in cs.minus_defeasible
        assert lit("-A") in cs.minus_defeasible
        assert cs.plus_defeasible == frozenset()

    def test_superiority_resolves_conflict(self):
        t = parse_theory("r1: => A\nr2: => -A\nr1 > r2\n")
        cs = conclusions(t)
        assert lit("A") in cs.plus_defeasible
        assert lit("-A") in cs.minus_defeasible

    def test_fact_beats_defeasible_attack(self):
        t = parse_theory(">> -A\nr1: => A\n")
        cs = conclusions(t)
        assert lit("-A") in cs.plus_definite
        assert lit("A") in cs.minus_defeasible
        assert cs.undetermined == frozenset()

    def test_defeater_blocks_but_never_supports(self):
        t = parse_theory("r1: => A\nd1: ~> -A\n")
        cs = conclusions(t)
        assert lit("A") in cs.minus_defeasible  # blocked by the defeater
        assert lit("-A") in cs.minus_defeasible  # defeaters cannot prove

    def test_team_defeat(self):
        # Neither supporter alone beats both attackers, but the team does.
        t = parse_theory(
            "r1: => A\nr2: => A\ns1: => -A\ns2: => -A\n"
            "r1 > s1\nr2 > s2\n"
        )
        cs = conclusions(t)
        assert lit("A") in cs.plus_defeasible

    def test_ambiguity_blocking(self):
        # A vs -A unresolved; the -A side would support B, but blocking means
        # B's attacker is discarded and B goes through.
        t = parse_theory(
            "r1: => A\nr2: => -A\n"
            "r3: -A => -B\nr4: => B\n"
        )
        cs = conclusions(t)
        assert lit("-A") in cs.minus_defeasible
        assert lit("B") in cs.plus_defeasible

    def test_loop_reports_undetermined(self):
        t = parse_theory("r1: B => A\nr2: A => B\nr3: => -A\nr4: A => -B\n")
        cs = conclusions(t)
        assert lit("-A") in cs.plus_defeasible
        # A's own support loops through B and can never be discarded or fire.
        assert lit("A") in cs.minus_defeasible or lit("A") in cs.undetermined

    def test_seaside_single_slot_block(self, seaside_reference_theory):
        cs = conclusions(seaside_reference_theory)
        assert lit("CNorth_h1_78") in cs.plus_defeasible
        assert lit("-CNorth_h1_88") in cs.plus_defeasible
        assert lit("CNorth_h1_88") in cs.minus_defeasible


class TestConclusionSetLaws:
    def test_empty_theory(self):
        cs = conclusions(DefeasibleTheory())
        assert cs == ConclusionSet()

    def test_json_round_trip(self, seaside_reference_theory):
        cs = conclusions(seaside_reference_theory)
        data = conclusions_to_json(cs)
        assert conclusions_from_json(data) == cs

    @pytest.mark.parametrize("doc", [b'{"+d": [5]}', b'{"+d": "A"}', b'{"-d": ["A B"]}',
                                     b'{"+d": [], "-d": ["A B"]}'])
    def test_json_rejects_non_literals(self, doc):
        with pytest.raises(SchemaError):
            conclusions_from_json(doc)

    def test_json_sorted(self):
        cs = conclusions(parse_theory("r1: => B\nr2: => A\n"))
        data = conclusions_to_json(cs).decode()
        assert data.index('"A"') < data.index('"B"')


_LITERAL_TEXT = st.builds(lambda sign, first, rest: sign + first + rest,
                          st.sampled_from(["", "-"]), st.sampled_from("AbZ"),
                          st.text("a_9Z", max_size=8))


def _reference_to_json(cs: ConclusionSet) -> bytes:
    """The indenting writer conclusions_to_json replaces."""
    doc = {key: sorted(str(q) for q in getattr(cs, attr)) for key, attr in (
        ("+D", "plus_definite"), ("-D", "minus_definite"), ("+d", "plus_defeasible"),
        ("-d", "minus_defeasible"), ("undetermined", "undetermined"))}
    return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(frozenset()),
                          st.builds(lambda t: frozenset({t}), _LITERAL_TEXT),
                          st.frozensets(_LITERAL_TEXT, max_size=30)),
                min_size=5, max_size=5))
def test_json_writer_equals_the_indenting_writer(sets):
    """Byte for byte, for empty, one-item and larger tag sets."""
    cs = ConclusionSet(*(frozenset(map(lit, s)) for s in sets))
    assert conclusions_to_json(cs) == _reference_to_json(cs)
    assert conclusions_from_json(conclusions_to_json(cs)) == cs


class TestOracle:
    def test_simple_agreement(self):
        t = parse_theory("r1: => A\n")
        assert oracle_conclusions(t) == conclusions(t)

    def test_seaside_slot_subset(self, seaside_reference_theory):
        keep = {"r_fcg21", "r_fce21", "r_cg11", "r_ce11", "v_c11", "v_c21"}
        rules = tuple(r for r in seaside_reference_theory.rules if r.id in keep)
        sups = tuple(p for p in seaside_reference_theory.superiority
                     if p[0] in keep and p[1] in keep)
        t = DefeasibleTheory((), rules, sups)
        assert oracle_conclusions(t) == conclusions(t)

    @pytest.mark.parametrize("fixture", ["seaside_theory", "seaside_reference_theory",
                                         "rain_reference_theory"])
    def test_whole_fixture_theories(self, fixture, request):
        t = request.getfixturevalue(fixture)
        assert oracle_conclusions(t) == conclusions(t)

    def test_attacked_chain(self):
        t = _attacked_chain(50, reverse=True)
        assert oracle_conclusions(t) == conclusions(t)

    @pytest.mark.parametrize("seed", range(20))
    def test_many_model_folds(self, seed):
        rng = random.Random(seed)
        methods = [f"M{i}" for i in range(rng.randint(3, 16))]
        lams, kb = random_two_model_inputs(rng, methods)
        t = build_theory(lams, kb, parse_timeref("h0"))
        assert any("_xr" in rule.head.atom for rule in t.rules)  # at least one fold round
        assert oracle_conclusions(t) == conclusions(t)


def _check_laws(cs: ConclusionSet):
    assert not cs.plus_defeasible & cs.minus_defeasible
    assert not cs.plus_definite & cs.minus_definite
    assert cs.plus_definite <= cs.plus_defeasible
    assert cs.minus_defeasible <= cs.minus_definite
    for q in cs.plus_defeasible:
        if q.complement() in cs.plus_defeasible:
            assert q in cs.plus_definite and q.complement() in cs.plus_definite


@pytest.mark.parametrize("seed", range(200))
def test_differential_and_laws_on_random_theories(seed):
    theory = random_theory(random.Random(seed))
    cs = conclusions(theory)
    _check_laws(cs)
    assert oracle_conclusions(theory) == cs


@pytest.mark.parametrize("seed", range(300))
def test_differential_and_laws_on_dense_random_theories(seed):
    # Up to 40 rules over 12 atoms: long enough derivations to exercise the
    # per-rule counters and repeated re-queuing of the same head.
    theory = random_theory(random.Random(seed), max_rules=40, atoms="abcdefghijkl")
    cs = conclusions(theory)
    _check_laws(cs)
    assert oracle_conclusions(theory) == cs


@pytest.mark.parametrize("text", [
    "r: a, a => b\n>> a\n",                    # duplicated body literal
    "r: a, a => b\ns: => -a\nt: => a\n",      # ... that gets discarded
    "r: a => a\n",                             # self-support loop
    "r: -> a\ns: a -> b\nt: => -b\n",         # empty-body strict rule
    ">> a\nr: => a\ns: => -a\ns > r\n",       # fact that also heads a defeasible rule
    "r: => b\nd: b ~> -a\ns: => a\n",         # defeater with a body
    "r: => b\nd: b ~> -a\ns: => a\ns > d\n",  # ... beaten by the supporting rule
])
def test_edge_cases_against_oracle(text):
    theory = parse_theory(text)
    cs = conclusions(theory)
    _check_laws(cs)
    assert oracle_conclusions(theory) == cs


def test_self_support_loop_is_undetermined():
    cs = conclusions(parse_theory("r: a => a\n"))
    assert cs.undetermined == lits("a")
    assert cs.minus_defeasible == lits("-a")


def _attacked_chain(links: int, reverse: bool) -> DefeasibleTheory:
    """A strict chain s000 -> ... -> s100, then links d_i: prev => c_i, each
    attacked by x_i: prev => -c_i (a defeater on odd i) with d_i > x_i.

    With `reverse`, atom names and rule order run against the dependency
    order, which is the worst case for a closure that re-scans pending
    literals in name order. Both orders use the same names.
    """
    def name(prefix: str, i: int, last: int) -> str:
        return f"{prefix}{(last - i if reverse else i):05d}"

    order = range(links, 0, -1) if reverse else range(1, links + 1)
    strict = [Literal(name("s", i, 100)) for i in range(101)]
    chain = [strict[-1]] + [Literal(name("c", i, links + 1)) for i in range(1, links + 1)]
    rules, sups = [], []
    for i in order:
        kind = RuleKind.DEFEATER if i % 2 else RuleKind.DEFEASIBLE
        rules.append(Rule(f"d{chain[i]}", RuleKind.DEFEASIBLE, (chain[i - 1],), chain[i]))
        rules.append(Rule(f"x{chain[i]}", kind, (chain[i - 1],), chain[i].complement()))
        sups.append((f"d{chain[i]}", f"x{chain[i]}"))
    rules += [Rule(f"t{strict[i]}", RuleKind.STRICT, (strict[i - 1],), strict[i])
              for i in (range(100, 0, -1) if reverse else range(1, 101))]
    return DefeasibleTheory((strict[0],), tuple(rules), tuple(sups))


def test_attacked_chain_closes_in_linear_time():
    links = 6400
    theory = _attacked_chain(links, reverse=True)
    start = time.perf_counter()
    cs = conclusions(theory)
    elapsed = time.perf_counter() - start
    strict = frozenset(Literal(f"s{i:05d}") for i in range(101))
    chain = frozenset(Literal(f"c{i:05d}") for i in range(1, links + 1))
    neg = lambda ls: frozenset(q.complement() for q in ls)
    assert cs.plus_definite == strict
    assert cs.minus_definite == chain | neg(strict) | neg(chain)
    assert cs.plus_defeasible == strict | chain
    assert cs.minus_defeasible == neg(strict) | neg(chain)
    assert cs.undetermined == frozenset()
    # Linear work takes about 0.2 s here; a closure that re-scans every
    # pending literal per pass needs minutes.
    assert elapsed <= 5.0
    assert conclusions(_attacked_chain(links, reverse=False)) == cs


def test_head_with_many_rules_closes_in_linear_time():
    # 32,000 rules for `a` become applicable last-listed first while an
    # undetermined attacker keeps `a` open, so `a` is re-checked after each
    # one. A closure that re-scans the rules for `a` at each check needs
    # about half a minute.
    n = 32000
    a, c = Literal("a"), Literal("c")
    bodies = [Literal(f"b{i:05d}") for i in range(n)]
    rules = [Rule(f"f{i:05d}", RuleKind.DEFEASIBLE, (), bodies[i]) for i in reversed(range(n))]
    rules += [Rule(f"r{i:05d}", RuleKind.DEFEASIBLE, (bodies[i],), a) for i in range(n)]
    rules += [Rule("s", RuleKind.DEFEASIBLE, (c,), a.complement()),
              Rule("loop", RuleKind.DEFEASIBLE, (c,), c)]
    theory = DefeasibleTheory((), tuple(rules), ())
    start = time.perf_counter()
    cs = conclusions(theory)
    elapsed = time.perf_counter() - start
    assert cs.undetermined == lits("a", "c")
    assert cs.plus_defeasible == frozenset(bodies)
    assert elapsed <= 5.0
