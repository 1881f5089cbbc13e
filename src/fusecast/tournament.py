"""Translate labeled forecast assertions into a defeasible theory.

Per slot (condition, location, day horizon):

  * observation assertions become facts over untagged atoms, and suppress all
    model-derived untagged conclusions for that slot (ground truth wins);
  * every model assertion becomes a body-less defeasible rule concluding a
    source-tagged literal;
  * a conflicting pair yields two "supremacy" rules (one blended value biased
    toward each side), two conflict rules connecting the blended outcomes,
    and two priorities oriented toward whichever side prevails
    (override, then accuracy, then recency);
  * an uncontested slot gets pass-through rules so the scenario layer always
    reads untagged literals.

More than two conflicting sources fold pairwise in sift order; intermediate
rounds conclude source-tagged literals so only the final round's heads are
scenario-visible (with two sources this is the plain pairwise construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

from .errors import ForecastError
from .inputs import MILLION
from .kb import KnowledgeBase, accuracy_of, override_winner
from .model import (
    Condition,
    LabeledAssertionalMap,
    Label,
    Location,
    TimeRef,
    Value,
    conflicts_with,
    hindcast_days,
    horizon_index,
    is_future,
    resolve_instant,
)
from .theory import (
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    encode_atom,
    method_tag,
    validate_theory,
)


class Bias(Enum):
    FIRST = "first"
    SECOND = "second"


class Winner(Enum):
    FIRST = "first"
    SECOND = "second"
    TIE = "tie"


class PrevalenceBasis(Enum):
    SPECIFIC = "specific"   # expert override
    ACCURACY = "accuracy"
    RECENCY = "recency"


@dataclass(frozen=True, slots=True)
class Prevalence:
    winner: Winner
    basis: Optional[PrevalenceBasis]  # None exactly when winner is TIE


#: The biased side's blend weight never drops below one half (in millionths).
MIN_WEIGHT = MILLION // 2


def supremacy(v_first: Value, v_second: Value, a_first: int,
              a_second: int, bias: Bias) -> Value:
    """Biased blend of two conflicting values of the same kind, from the two
    sides' accuracies in millionths.

    The biased side weighs w = clamp(max(a_bias, 1 - a_other), MIN_WEIGHT, 1);
    the magnitude is rounded half up to a whole unit and kept inside the
    closed interval the inputs span (betweenness), and equal inputs return
    the biased value unchanged (idempotence). The direction is the biased
    side's. Weights and magnitudes are ints in millionths, so it is exact.
    """
    if (v_first.direction is None) != (v_second.direction is None):
        raise ForecastError("cannot blend values of mixed condition kinds")
    if bias is Bias.FIRST:
        v_bias, v_other, a_bias, a_other = v_first, v_second, a_first, a_second
    else:
        v_bias, v_other, a_bias, a_other = v_second, v_first, a_second, a_first
    w = min(max(a_bias, MILLION - a_other, MIN_WEIGHT), MILLION)
    vb, vo = v_bias.micros, v_other.micros
    # w * vb + (1 - w) * vo, in millionths of millionths of a unit.
    blend, scale = w * vb + (MILLION - w) * vo, MILLION * MILLION
    rounded = (2 * blend + scale) // (2 * scale) * MILLION
    return Value.of(min(max(rounded, min(vb, vo)), max(vb, vo)), v_bias.direction)


# ---------------------------------------------------------------------------
# Sifting
# ---------------------------------------------------------------------------

_CONDITION_ORDER = {cond: i for i, cond in enumerate(Condition)}


def _lead_horizon(lam: LabeledAssertionalMap) -> int:
    """Forecast lead time in days (validity vs generation), floored at 0."""
    days = hindcast_days(lam.map.valid_at, lam.label.generated_at)
    return max(days or 0, 0)


def _lam_accuracy(lam: LabeledAssertionalMap, kb: KnowledgeBase) -> int:
    return accuracy_of(kb, lam.label.method, _lead_horizon(lam))


def slot_key(lam: LabeledAssertionalMap, now: TimeRef) -> tuple:
    m = lam.map
    return (_CONDITION_ORDER[m.condition], str(m.location),
            horizon_index(m.valid_at, now))


class _Kept(list):
    """sift's survivors in order. `facts` holds each one's slot key and
    accuracy, which build_theory reads instead of computing them again."""

    __slots__ = ("facts",)


def sift(lams: Sequence[LabeledAssertionalMap], kb: KnowledgeBase,
         now: TimeRef) -> list[LabeledAssertionalMap]:
    """Discard out-of-date or unreliable assertions and order the survivors.

    Dropped: future-labeled maps (generated after `now`), maps whose validity
    already lies in the past, and maps below the KB reliability threshold
    (observations always survive). Survivors are grouped per slot and ordered
    by accuracy desc, generation time desc, method id asc. Recency is computed
    once per label, the horizon once per validity and the accuracy once per
    (label, validity).
    """
    recencies: dict[Label, Optional[float]] = {}
    horizons: dict[TimeRef, int] = {}
    accuracies: dict[tuple[Label, TimeRef], int] = {}
    keyed = []
    for lam in lams:
        label, m = lam.label, lam.map
        if label not in recencies:
            recency = None if is_future(label.generated_at, now) else \
                resolve_instant(label.generated_at, now)
            recencies[label] = recency.timestamp() if hasattr(recency, "timestamp") else recency
        recency = recencies[label]
        if recency is None:
            continue
        horizon = horizons.get(m.valid_at)
        if horizon is None:
            horizon = horizons[m.valid_at] = horizon_index(m.valid_at, now)
        if horizon < 0:
            continue
        acc = accuracies.get((label, m.valid_at))
        if acc is None:
            acc = accuracies[label, m.valid_at] = _lam_accuracy(lam, kb)
        if acc < kb.min_micros and not lam.is_observation:
            continue
        slot = (_CONDITION_ORDER[m.condition], m.location.name, horizon)
        keyed.append(((*slot, -acc, -recency, label.method, str(m.value)), slot, acc, lam))
    keyed.sort(key=itemgetter(0))
    kept = _Kept(lam for *_, lam in keyed)
    kept.facts = [(slot, acc) for _, slot, acc, _ in keyed]
    return kept


# ---------------------------------------------------------------------------
# Prevalence
# ---------------------------------------------------------------------------

def _label_order(a: Label, b: Label) -> int:
    """-1/0/+1 comparing generation times (later is greater)."""
    if not a.generated_at.is_symbolic:
        ref = a.generated_at
    elif not b.generated_at.is_symbolic:
        ref = b.generated_at
    else:
        ref = TimeRef.symbolic(0)
    ta = resolve_instant(a.generated_at, ref)
    tb = resolve_instant(b.generated_at, ref)
    return (ta > tb) - (ta < tb)


def _prevalence(label_a: Label, acc_a: int, label_b: Label, acc_b: int,
                kb: KnowledgeBase, condition: Condition,
                location: Optional[str]) -> Prevalence:
    ov = None
    if label_a.method != label_b.method:
        ov = override_winner(kb, label_a.method, label_b.method, condition, location)
    if ov is not None:
        return Prevalence(Winner.FIRST if ov == label_a.method else Winner.SECOND,
                          PrevalenceBasis.SPECIFIC)
    if acc_a != acc_b:
        return Prevalence(Winner.FIRST if acc_a > acc_b else Winner.SECOND,
                          PrevalenceBasis.ACCURACY)
    order = _label_order(label_a, label_b)
    if order:
        return Prevalence(Winner.FIRST if order > 0 else Winner.SECOND,
                          PrevalenceBasis.RECENCY)
    return Prevalence(Winner.TIE, None)


def prevails(a: LabeledAssertionalMap, b: LabeledAssertionalMap,
             kb: KnowledgeBase) -> Prevalence:
    """Which of two conflicting assertions wins.

    Expert override first, then higher accuracy at the lead horizon, then the
    more recent generation time; Tie only when all three are silent.
    """
    if not conflicts_with(a.map, b.map):
        raise ForecastError("prevails requires two conflicting assertional maps")
    return _prevalence(a.label, _lam_accuracy(a, kb), b.label, _lam_accuracy(b, kb),
                       kb, a.map.condition, a.map.location.name)


# ---------------------------------------------------------------------------
# Theory construction
# ---------------------------------------------------------------------------

def build_theory(metarules: Sequence[LabeledAssertionalMap], kb: KnowledgeBase,
                 now: TimeRef) -> DefeasibleTheory:
    """Emit the defeasible theory for a set of labeled assertions.

    Sifts internally (idempotent), then processes slots in canonical order,
    which is sift's. Deterministic: equal inputs, in any order, serialize
    identically. Each assertion's tagged literal is encoded once and shared
    by its r_ rule, the fold and the pass-through rule. Observations that
    disagree on a slot are an error.
    """
    lams = sift(metarules, kb, now)
    _check_tag_collisions(lams)

    facts: dict[Literal, None] = {}
    rules: dict[str, Rule] = {}
    sups: list[tuple[str, str]] = []

    def add_rule(rule: Rule) -> None:
        existing = rules.get(rule.id)
        if existing is None:
            rules[rule.id] = rule
        elif existing != rule:
            raise ForecastError(f"conflicting definitions for rule {rule.id!r}")

    for (_, _, horizon), group in groupby(zip(lams, lams.facts), key=lambda p: p[1][0]):
        group = list(group)
        cond = group[0][0].map.condition
        location = group[0][0].map.location
        obs = [lam.map.value for lam, _ in group if lam.is_observation]
        models = []
        for lam, (_, acc) in group:
            if not lam.is_observation:
                tagged = Literal.of(encode_atom(cond, lam.label.method, location, horizon,
                                                lam.map.value))
                add_rule(Rule.of(f"r_{tagged.atom}", RuleKind.DEFEASIBLE, (), tagged))
                models.append((lam, tagged, acc))

        if obs:
            # Ground truth covers the slot: facts only, no untagged model output.
            for value in obs[1:]:
                if value != obs[0]:
                    raise ForecastError(f"observations disagree on {cond.value} @ "
                                        f"{location} @ h{horizon}: {obs[0]} and {value}")
            facts.setdefault(Literal.of(encode_atom(cond, None, location, horizon, obs[0])))
            continue
        if not models:
            continue

        rounds = _fold_slot(models, cond, location, kb)
        if rounds:
            _emit_rounds(rounds, models[0][1], cond, location, horizon, add_rule, sups)
            continue
        # Uncontested: every model asserts the first one's value.
        untagged = Literal.of(encode_atom(cond, None, location, horizon,
                                          models[0][0].map.value))
        for _, tagged, _ in models:
            add_rule(Rule.of(f"pt_{tagged.atom}", RuleKind.DEFEASIBLE, (tagged,), untagged))

    theory = DefeasibleTheory(tuple(facts), tuple(rules.values()), tuple(sups))
    validate_theory(theory)
    return theory


def _fold_slot(models: Sequence[tuple[LabeledAssertionalMap, Literal, int]],
               cond: Condition, location: Location,
               kb: KnowledgeBase) -> list[tuple[Literal, Value, Value, bool]]:
    """Simulate the pairwise fold over (assertion, tagged literal, accuracy)
    triples.

    Per contested round: the challenger's literal, the blends biased toward
    the champion and toward the challenger, and whether the champion wins.
    The champion's running value is the winner's blend, its label the
    winner's original label.
    """
    champ_lam, _, champ_acc = models[0]
    champ_value = champ_lam.map.value
    rounds = []
    for nxt, tagged_next, nxt_acc in models[1:]:
        if nxt.map.value == champ_value:
            continue
        blend_first = supremacy(champ_value, nxt.map.value, champ_acc, nxt_acc,
                                Bias.FIRST)
        blend_second = supremacy(champ_value, nxt.map.value, champ_acc, nxt_acc,
                                 Bias.SECOND)
        verdict = _prevalence(champ_lam.label, champ_acc, nxt.label, nxt_acc,
                              kb, cond, location.name)
        first_wins = verdict.winner is not Winner.SECOND  # ties keep the champion
        rounds.append((tagged_next, blend_first, blend_second, first_wins))
        if not first_wins:
            champ_lam, champ_acc = nxt, nxt_acc
        champ_value = blend_first if first_wins else blend_second
    return rounds


def _emit_rounds(rounds: Sequence[tuple[Literal, Value, Value, bool]], champ_lit: Literal,
                 cond: Condition, location: Location, horizon: int,
                 add_rule, sups: list) -> None:
    """The rules and priorities of a slot's fold, from the first model's literal.

    Each non-final round concludes atoms in its own reserved namespace (tag
    "xr<i>"), so rounds never share literals, however the blended values
    evolve; only the last round's heads are untagged and scenario-visible.
    Each round's body holds the previous winner's head.
    """
    for index, (tagged_next, blend_first, blend_second, first_wins) in enumerate(rounds):
        src = None if index == len(rounds) - 1 else f"xr{index}"
        body = (champ_lit, tagged_next)
        head_first = Literal.of(encode_atom(cond, src, location, horizon, blend_first))
        champ_lit = head_first
        if blend_first == blend_second:
            # Both biased outcomes agree: the contest is vacuous.
            add_rule(Rule.of(f"sr_{head_first.atom}", RuleKind.DEFEASIBLE, body, head_first))
            continue
        head_second = Literal.of(encode_atom(cond, src, location, horizon, blend_second))
        sr_first = Rule.of(f"sr_{head_first.atom}", RuleKind.DEFEASIBLE, body, head_first)
        sr_second = Rule.of(f"sr_{head_second.atom}", RuleKind.DEFEASIBLE, body, head_second)
        vc_first = Rule.of(f"vc_{head_first.atom}", RuleKind.DEFEASIBLE,
                           (head_first,), head_second.complement())
        vc_second = Rule.of(f"vc_{head_second.atom}", RuleKind.DEFEASIBLE,
                            (head_second,), head_first.complement())
        for rule in (sr_first, sr_second, vc_first, vc_second):
            add_rule(rule)
        if first_wins:
            sups.append((vc_first.id, sr_second.id))
            sups.append((sr_first.id, vc_second.id))
        else:
            champ_lit = head_second
            sups.append((vc_second.id, sr_first.id))
            sups.append((sr_second.id, vc_first.id))


def _check_tag_collisions(lams: Sequence[LabeledAssertionalMap]) -> None:
    tags: dict[str, str] = {}
    for method in dict.fromkeys(lam.label.method for lam in lams):
        tag = method_tag(method)
        other = tags.setdefault(tag, method)
        if other != method:
            raise ForecastError(
                f"method ids {other!r} and {method!r} collide on atom tag {tag!r}"
            )
