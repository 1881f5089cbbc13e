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
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .errors import ForecastError
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


@dataclass(frozen=True)
class Prevalence:
    winner: Winner
    basis: Optional[PrevalenceBasis]  # None exactly when winner is TIE


#: The biased side's blend weight never drops below one half.
MIN_WEIGHT = Fraction(1, 2)


def supremacy(v_first: Value, v_second: Value, a_first: Fraction,
              a_second: Fraction, bias: Bias) -> Value:
    """Biased blend of two conflicting values of the same kind.

    The biased side weighs w = clamp(max(a_bias, 1 - a_other), MIN_WEIGHT, 1);
    the magnitude is rounded half up and kept inside the closed interval the
    inputs span (betweenness), and equal inputs return the biased value
    unchanged (idempotence). The direction is the biased side's.

    Computed on integer numerators and denominators; the only Fraction
    built is the rounded result.
    """
    if (v_first.direction is None) != (v_second.direction is None):
        raise ForecastError("cannot blend values of mixed condition kinds")
    if bias is Bias.FIRST:
        v_bias, v_other, a_bias, a_other = v_first, v_second, a_first, a_second
    else:
        v_bias, v_other, a_bias, a_other = v_second, v_first, a_second, a_first
    # w = wn / wd, each candidate compared by cross-multiplication.
    wn, wd = a_bias.numerator, a_bias.denominator
    if (a_other.denominator - a_other.numerator) * wd > wn * a_other.denominator:
        wn, wd = a_other.denominator - a_other.numerator, a_other.denominator
    if wn * MIN_WEIGHT.denominator < MIN_WEIGHT.numerator * wd:
        wn, wd = MIN_WEIGHT.numerator, MIN_WEIGHT.denominator
    elif wn > wd:
        wn, wd = 1, 1
    vb, vo = v_bias.magnitude, v_other.magnitude
    bn, bd, on, od = vb.numerator, vb.denominator, vo.numerator, vo.denominator
    # w * vb + (1 - w) * vo = num / den, rounded half up.
    num = wn * bn * od + (wd - wn) * on * bd
    den = wd * bd * od
    rounded = (2 * num + den) // (2 * den)
    # Betweenness survives the rounding.
    lo, hi = (vb, vo) if bn * od <= on * bd else (vo, vb)
    if rounded * lo.denominator < lo.numerator:
        magnitude = lo
    elif rounded * hi.denominator > hi.numerator:
        magnitude = hi
    else:
        magnitude = Fraction(rounded)
    return Value(magnitude, v_bias.direction)


# ---------------------------------------------------------------------------
# Sifting
# ---------------------------------------------------------------------------

_CONDITION_ORDER = {cond: i for i, cond in enumerate(Condition)}


def _lead_horizon(lam: LabeledAssertionalMap) -> int:
    """Forecast lead time in days (validity vs generation), floored at 0."""
    days = hindcast_days(lam.map.valid_at, lam.label.generated_at)
    return max(days or 0, 0)


def _lam_accuracy(lam: LabeledAssertionalMap, kb: KnowledgeBase) -> Fraction:
    return accuracy_of(kb, lam.label.method, _lead_horizon(lam))


def slot_key(lam: LabeledAssertionalMap, now: TimeRef) -> tuple:
    m = lam.map
    return (_CONDITION_ORDER[m.condition], str(m.location),
            horizon_index(m.valid_at, now))


def sift(lams: Sequence[LabeledAssertionalMap], kb: KnowledgeBase,
         now: TimeRef) -> list[LabeledAssertionalMap]:
    """Discard out-of-date or unreliable assertions and order the survivors.

    Dropped: future-labeled maps (generated after `now`), maps whose validity
    already lies in the past, and maps below the KB reliability threshold
    (observations always survive). Survivors are grouped per slot and ordered
    by accuracy desc, generation time desc, method id asc. Each assertion's
    slot, accuracy and recency are computed once.
    """
    keyed = []
    for lam in lams:
        if is_future(lam.label.generated_at, now):
            continue
        m = lam.map
        horizon = horizon_index(m.valid_at, now)
        if horizon < 0:
            continue
        acc = _lam_accuracy(lam, kb)
        if not lam.is_observation and acc < kb.min_accuracy:
            continue
        recency = resolve_instant(lam.label.generated_at, now)
        recency_key = recency.timestamp() if hasattr(recency, "timestamp") else recency
        # The float goes first because it is cheap to compare; rounding is
        # monotonic, so the exact accuracy only breaks float ties.
        keyed.append(((_CONDITION_ORDER[m.condition], str(m.location), horizon,
                       -float(acc), -acc, -recency_key, lam.label.method, str(m.value)),
                      lam))
    keyed.sort(key=itemgetter(0))
    return [lam for _, lam in keyed]


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


def _prevalence(label_a: Label, acc_a: Fraction, label_b: Label, acc_b: Fraction,
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

    Sifts internally (idempotent), then processes slots in canonical order.
    Deterministic: equal inputs, in any order, serialize identically. Each
    assertion's tagged literal is encoded once and shared by its r_ rule,
    the fold and the pass-through rule.
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

    groups: dict[tuple, list[LabeledAssertionalMap]] = {}
    for lam in lams:
        groups.setdefault(slot_key(lam, now), []).append(lam)

    for key in sorted(groups):
        group = groups[key]
        horizon = key[2]
        cond = group[0].map.condition
        location = group[0].map.location
        obs = [l for l in group if l.is_observation]
        models = []
        for lam in group:
            if not lam.is_observation:
                tagged = Literal(encode_atom(cond, lam.label.method, location, horizon,
                                             lam.map.value))
                add_rule(Rule(f"r_{tagged.atom}", RuleKind.DEFEASIBLE, (), tagged))
                models.append((lam, tagged))

        if obs:
            # Ground truth covers the slot: facts only, no untagged model output.
            for lam in obs:
                facts.setdefault(Literal(encode_atom(cond, None, location, horizon,
                                                     lam.map.value)))
            continue
        if not models:
            continue

        rounds = _fold_slot(models, cond, location, kb)
        if rounds:
            _emit_rounds(rounds, models[0][1], cond, location, horizon, add_rule, sups)
            continue
        # Uncontested: every model asserts the first one's value.
        untagged = Literal(encode_atom(cond, None, location, horizon, models[0][0].map.value))
        for _, tagged in models:
            add_rule(Rule(f"pt_{tagged.atom}", RuleKind.DEFEASIBLE, (tagged,), untagged))

    theory = DefeasibleTheory(tuple(facts), tuple(rules.values()), tuple(sups))
    validate_theory(theory)
    return theory


def _fold_slot(models: Sequence[tuple[LabeledAssertionalMap, Literal]],
               cond: Condition, location: Location,
               kb: KnowledgeBase) -> list[tuple[Literal, Value, Value, bool]]:
    """Simulate the pairwise fold over (assertion, tagged literal) pairs.

    Per contested round: the challenger's literal, the blends biased toward
    the champion and toward the challenger, and whether the champion wins.
    The champion's running value is the winner's blend, its label the
    winner's original label.
    """
    champ_lam = models[0][0]
    champ_value, champ_acc = champ_lam.map.value, _lam_accuracy(champ_lam, kb)
    rounds = []
    for nxt, tagged_next in models[1:]:
        if nxt.map.value == champ_value:
            continue
        nxt_acc = _lam_accuracy(nxt, kb)
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
        head_first = Literal(encode_atom(cond, src, location, horizon, blend_first))
        champ_lit = head_first
        if blend_first == blend_second:
            # Both biased outcomes agree: the contest is vacuous.
            add_rule(Rule(f"sr_{head_first.atom}", RuleKind.DEFEASIBLE, body, head_first))
            continue
        head_second = Literal(encode_atom(cond, src, location, horizon, blend_second))
        sr_first = Rule(f"sr_{head_first.atom}", RuleKind.DEFEASIBLE, body, head_first)
        sr_second = Rule(f"sr_{head_second.atom}", RuleKind.DEFEASIBLE, body, head_second)
        vc_first = Rule(f"vc_{head_first.atom}", RuleKind.DEFEASIBLE,
                        (head_first,), head_second.complement())
        vc_second = Rule(f"vc_{head_second.atom}", RuleKind.DEFEASIBLE,
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
    for lam in lams:
        method = lam.label.method
        tag = method_tag(method)
        other = tags.setdefault(tag, method)
        if other != method:
            raise ForecastError(
                f"method ids {other!r} and {method!r} collide on atom tag {tag!r}"
            )
