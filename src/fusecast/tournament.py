"""Translate labeled forecast assertions into a defeasible theory.

Per slot (condition, location, day horizon):

  * observation assertions become facts over untagged atoms, and suppress all
    model-derived untagged conclusions for that slot (ground truth wins);
  * every model assertion becomes a body-less defeasible rule concluding a
    source-tagged literal;
  * a conflicting pair yields two "supremacy" rules (one blended value biased
    toward each side), two conflict rules connecting the blended outcomes,
    and two priorities oriented toward whichever side prevails
    (override, then accuracy, then recency, the last two by sift's order);
  * an uncontested slot gets pass-through rules so the scenario layer always
    reads untagged literals.

More than two conflicting sources fold pairwise in sift order; intermediate
rounds conclude source-tagged literals so only the final round's heads are
scenario-visible (with two sources this is the plain pairwise construction).
One function, _fold_slot, decides a slot's rounds and writes their rules and
priorities. One helper, _lead_accuracy, gives a model's accuracy at the lead
(days from generation to validity) to both sift and prevails.
"""

from __future__ import annotations

from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import ForecastError
from .inputs import MILLION
from .kb import KnowledgeBase, accuracy_of, override_winner
from .model import (
    Condition,
    LabeledAssertionalMap,
    Label,
    TimeRef,
    Value,
    conflicts_with,
    horizon_index,
    place,
)
from .theory import (
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    method_tag,
    slot_segments,
    validate_theory,
    value_code,
)


class Winner(Enum):
    FIRST = "first"
    SECOND = "second"
    TIE = "tie"


class PrevalenceBasis(Enum):
    SPECIFIC = "specific"   # expert override
    ACCURACY = "accuracy"
    RECENCY = "recency"


class Prevalence(NamedTuple):
    winner: Winner
    basis: Optional[PrevalenceBasis]  # None exactly when winner is TIE


#: The biased side's blend weight never drops below one half (in millionths).
MIN_WEIGHT = MILLION // 2


def supremacy(v_bias: Value, v_other: Value, a_bias: int, a_other: int) -> Value:
    """Blend of two conflicting values of the same kind, biased toward the
    first, from the two sides' accuracies in millionths.

    The biased side weighs w = clamp(max(a_bias, 1 - a_other), MIN_WEIGHT, 1);
    the magnitude is rounded half up to a whole unit and kept inside the
    closed interval the inputs span (betweenness), and equal inputs return
    the biased value unchanged (idempotence). The direction is the biased
    side's. Weights and magnitudes are ints in millionths, so it is exact.
    """
    if (v_bias.direction is None) != (v_other.direction is None):
        raise ForecastError("cannot blend values of mixed condition kinds")
    w = min(max(a_bias, MILLION - a_other, MIN_WEIGHT), MILLION)
    vb, vo = v_bias.micros, v_other.micros
    # w * vb + (1 - w) * vo, in millionths of millionths of a unit.
    blend, scale = w * vb + (MILLION - w) * vo, MILLION * MILLION
    rounded = (2 * blend + scale) // (2 * scale) * MILLION
    return Value(min(max(rounded, min(vb, vo)), max(vb, vo)), v_bias.direction)


# ---------------------------------------------------------------------------
# Sifting
# ---------------------------------------------------------------------------

_CONDITION_ORDER = {cond: i for i, cond in enumerate(Condition)}


def _lead_accuracy(kb: KnowledgeBase, method: str, gen: TimeRef, valid: TimeRef) -> int:
    """Accuracy at the lead: days from generation to validity, floored at 0."""
    return accuracy_of(kb, method, max(horizon_index(valid, gen), 0))


def slot_key(lam: LabeledAssertionalMap, now: TimeRef) -> tuple:
    m = lam.map
    return (_CONDITION_ORDER[m.condition], m.location,
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
    (observations, at accuracy 1, always survive). Survivors are grouped per
    slot and ordered by accuracy desc, generation time desc, method id asc,
    and returned with their references placed on `now`'s axis (model.place),
    so each is of now's kind. What sift needs of an assertion depends only on
    its label and validity, so each (label, validity) pair is placed and
    judged once: its recency, its day, the accuracy at the lead, and the
    placed label and validity when placing changed their kind; or None when
    the pair is dropped as future or past.
    """
    pairs: dict[tuple[Label, TimeRef], Optional[tuple]] = {}
    keyed = []
    for lam in lams:
        label, m = lam.label, lam.map
        facts = pairs.get((label, m.valid_at), pairs)
        if facts is pairs:  # a pair not met before
            facts = pairs[label, m.valid_at] = _pair_facts(label, m.valid_at, kb, now)
        if facts is None:
            continue
        recency, horizon, acc, placed = facts
        if acc < kb.min_micros:
            continue
        if placed:
            lam = LabeledAssertionalMap(placed[0], m._replace(valid_at=placed[1]))
        slot = (_CONDITION_ORDER[m.condition], m.location, horizon)
        keyed.append(((*slot, -acc, -recency, label.method, str(m.value)), slot, acc, lam))
    keyed.sort(key=itemgetter(0))
    kept = _Kept(lam for *_, lam in keyed)
    kept.facts = [(slot, acc) for _, slot, acc, _ in keyed]
    return kept


def _pair_facts(label: Label, valid_at: TimeRef, kb: KnowledgeBase,
                now: TimeRef) -> Optional[tuple]:
    """sift's facts of one (label, validity) pair. A future label is dropped
    before its validity is placed, so an absolute validity of a future map
    under a symbolic `now` is dropped, not an error."""
    gen = place(label.generated_at, now)
    recency = gen.horizon if gen.is_symbolic else gen.instant.timestamp()
    if recency > (now.horizon if now.is_symbolic else now.instant.timestamp()):
        return None
    valid = place(valid_at, now)
    horizon = horizon_index(valid, now)
    if horizon < 0:
        return None
    acc = _lead_accuracy(kb, label.method, gen, valid)
    changed = gen is not label.generated_at or valid is not valid_at
    return recency, horizon, acc, (Label(label.method, gen), valid) if changed else None


# ---------------------------------------------------------------------------
# Prevalence
# ---------------------------------------------------------------------------

def prevails(a: LabeledAssertionalMap, b: LabeledAssertionalMap,
             kb: KnowledgeBase) -> Prevalence:
    """Which of two conflicting assertions wins.

    Expert override first, then higher accuracy at the lead horizon, then the
    more recent generation time; Tie only when all three are silent. This is
    the reference for the fold, which asks only the override: sift's order
    already ranks each slot by accuracy and then recency. Recency compares
    generation times of one kind, as sift returns them, else ForecastError.
    """
    if not conflicts_with(a.map, b.map):
        raise ForecastError("prevails requires two conflicting assertional maps")
    ov = override_winner(kb, a.label.method, b.label.method, a.map.condition, a.map.location)
    if ov is not None:
        return Prevalence(Winner.FIRST if ov == a.label.method else Winner.SECOND,
                          PrevalenceBasis.SPECIFIC)
    acc_a = _lead_accuracy(kb, a.label.method, a.label.generated_at, a.map.valid_at)
    acc_b = _lead_accuracy(kb, b.label.method, b.label.generated_at, b.map.valid_at)
    if acc_a != acc_b:
        return Prevalence(Winner.FIRST if acc_a > acc_b else Winner.SECOND,
                          PrevalenceBasis.ACCURACY)
    gen_a, gen_b = a.label.generated_at, b.label.generated_at
    if gen_a.is_symbolic != gen_b.is_symbolic:
        raise ForecastError(f"cannot place generation times {gen_a} and {gen_b} on one axis")
    if gen_a != gen_b:
        return Prevalence(Winner.FIRST if gen_a > gen_b else Winner.SECOND,
                          PrevalenceBasis.RECENCY)
    return Prevalence(Winner.TIE, None)


# ---------------------------------------------------------------------------
# Theory construction
# ---------------------------------------------------------------------------

def build_theory(metarules: Sequence[LabeledAssertionalMap], kb: KnowledgeBase,
                 now: TimeRef) -> DefeasibleTheory:
    """Emit the defeasible theory for a set of labeled assertions.

    Sifts internally (idempotent), then processes slots in canonical order,
    which is sift's. Deterministic: equal inputs, in any order, serialize
    identically. Atom segments are checked once per slot and method tags once;
    each assertion's tagged literal is shared by its r_ rule, the fold and the
    pass-through rule. A rule id (kind prefix, then head) fixes the rule, so a
    repeated id is kept once, and a repeated assertion (one label, one value
    on one slot) plays the fold once. One label giving a slot two values, and
    observations that disagree on a slot, are errors.
    """
    lams = sift(metarules, kb, now)
    tags = _method_tags(lams)

    facts: dict[Literal, None] = {}
    rules: dict[str, Rule] = {}
    sups: list[tuple[str, str]] = []

    for (_, _, horizon), group in groupby(zip(lams, lams.facts), key=lambda p: p[1][0]):
        group = list(group)
        cond = group[0][0].map.condition
        location = group[0][0].map.location
        stem, when = slot_segments(cond, location, horizon)
        obs = [lam.map.value for lam, _ in group if lam.is_observation]
        models = []
        for lam, (_, acc) in group:
            if not lam.is_observation:
                tagged = Literal(f"{stem}_{tags[lam.label.method]}{when}"
                                 + value_code(cond, lam.map.value))
                if models and lam.label == models[-1][0].label:
                    # sift puts one label's assertions on a slot side by side
                    if tagged == models[-1][1]:
                        continue  # a repeated assertion plays once
                    raise ForecastError(
                        f"{lam.label.method} generated at {lam.label.generated_at} gives "
                        f"two values for {cond.value} @ {location} @ h{horizon}: "
                        f"{models[-1][0].map.value} and {lam.map.value}")
                rule = Rule("r_" + tagged, RuleKind.DEFEASIBLE, (), tagged)
                rules.setdefault(rule.id, rule)
                models.append((lam, tagged, acc))

        if obs:
            # Ground truth covers the slot: facts only, no untagged model output.
            for value in obs[1:]:
                if value != obs[0]:
                    raise ForecastError(f"observations disagree on {cond.value} @ "
                                        f"{location} @ h{horizon}: {obs[0]} and {value}")
            facts.setdefault(Literal(stem + when + value_code(cond, obs[0])))
        elif not _fold_slot(models, cond, location, stem, when, kb, rules, sups):
            # Uncontested: every model asserts the first one's value.
            untagged = Literal(stem + when + value_code(cond, models[0][0].map.value))
            for _, tagged, _ in models:
                rule = Rule("pt_" + tagged, RuleKind.DEFEASIBLE, (tagged,), untagged)
                rules.setdefault(rule.id, rule)

    theory = DefeasibleTheory(tuple(facts), tuple(rules.values()), tuple(sups))
    validate_theory(theory)
    return theory


def _fold_slot(models: Sequence[tuple[LabeledAssertionalMap, Literal, int]],
               cond: Condition, location: str, stem: str, when: str,
               kb: KnowledgeBase, rules: dict[str, Rule],
               sups: list[tuple[str, str]]) -> bool:
    """Fold a slot's (assertion, tagged literal, accuracy) triples pairwise
    into `rules` and `sups`; False when no round is contested.

    The first loop decides the rounds. The champion precedes the challenger
    in sift order, which ranks accuracy and then recency, so only an override
    makes it lose; its running value is the winner's blend, its label and
    accuracy the winner's. The second loop emits them: each round's body
    holds the previous winner's head, starting from the first model's, and
    each non-final round concludes atoms in its own reserved namespace (tag
    "xr<i>"), so rounds never share literals however the blends evolve.
    """
    champ_lam, champ_lit, champ_acc = models[0]
    champ_value = champ_lam.map.value
    rounds = []
    for nxt, tagged_next, nxt_acc in models[1:]:
        if nxt.map.value == champ_value:
            continue
        blend_first = supremacy(champ_value, nxt.map.value, champ_acc, nxt_acc)
        blend_second = supremacy(nxt.map.value, champ_value, nxt_acc, champ_acc)
        first_wins = override_winner(kb, champ_lam.label.method, nxt.label.method,
                                     cond, location) != nxt.label.method
        rounds.append((tagged_next, blend_first, blend_second, first_wins))
        if not first_wins:
            champ_lam, champ_acc = nxt, nxt_acc
        champ_value = blend_first if first_wins else blend_second

    for index, (tagged_next, blend_first, blend_second, first_wins) in enumerate(rounds):
        prefix = stem + when if index == len(rounds) - 1 else f"{stem}_xr{index}{when}"
        body = (champ_lit, tagged_next)
        head_first = Literal(prefix + value_code(cond, blend_first))
        champ_lit = head_first
        sr_first = Rule("sr_" + head_first, RuleKind.DEFEASIBLE, body, head_first)
        rules.setdefault(sr_first.id, sr_first)
        if blend_first == blend_second:
            # Both biased outcomes agree: the contest is vacuous.
            continue
        head_second = Literal(prefix + value_code(cond, blend_second))
        sr_second = Rule("sr_" + head_second, RuleKind.DEFEASIBLE, body, head_second)
        vc_first = Rule("vc_" + head_first, RuleKind.DEFEASIBLE,
                        (head_first,), head_second.complement())
        vc_second = Rule("vc_" + head_second, RuleKind.DEFEASIBLE,
                         (head_second,), head_first.complement())
        for rule in (sr_second, vc_first, vc_second):
            rules.setdefault(rule.id, rule)
        if first_wins:
            sups.append((vc_first.id, sr_second.id))
            sups.append((sr_first.id, vc_second.id))
        else:
            champ_lit = head_second
            sups.append((vc_second.id, sr_first.id))
            sups.append((sr_second.id, vc_first.id))
    return bool(rounds)


def _method_tags(lams: Sequence[LabeledAssertionalMap]) -> dict[str, str]:
    methods: dict[str, str] = {}
    for method in dict.fromkeys(lam.label.method for lam in lams):
        tag = method_tag(method)
        other = methods.setdefault(tag, method)
        if other != method:
            raise ForecastError(
                f"method ids {other!r} and {method!r} collide on atom tag {tag!r}"
            )
    return {method: tag for tag, method in methods.items()}
