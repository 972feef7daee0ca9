"""Condition assessment and remediation planning for boxed prints.

The planner walks the conservation decision sequence in a fixed order
(mould, blocking, silver dust, annotations, curling, rips) and produces an
ordered remediation plan plus a scanning route. A seeded Monte Carlo
sampler draws synthetic box conditions at configured issue rates, and an
aggregator recovers empirical frequencies from a batch of conditions.

A condition takes one of 144 values (`all_conditions`). Each is built
once, at import, and a sample is a list of references to those shared
instances, not one record per box. Their plans are derived at import
too, so planning a sampled box is a lookup.

The planner is pure. The sampler needs one random stream per concurrent
worker: give each worker its own seed.
"""
from __future__ import annotations

import collections
import enum
import itertools
import random
from dataclasses import dataclass, fields
from typing import Sequence

from .codec import JsonRecord
from .errors import DomainError


class MouldState(enum.Enum):
    NONE = "none"
    DORMANT = "dormant"
    ACTIVE = "active"


class RipDamage(enum.Enum):
    NONE = "none"
    MINOR = "minor"
    EXTENSIVE = "extensive"


class Step(enum.Enum):
    CLEAN_MOULD = "clean_mould"
    SEPARATE_BLOCKED = "separate_blocked"
    DRY_CLEAN_SILVER = "dry_clean_silver"
    SOLVENT_CLEAN = "solvent_clean"
    HUMIDIFY_AND_PRESS = "humidify_and_press"
    SLEEVE_PROTECT = "sleeve_protect"
    VACUUM_PACK = "vacuum_pack"


class Routing(enum.Enum):
    STANDARD = "standard"
    MOULD_ISOLATED = "mould_isolated"


class ScanRoute(enum.Enum):
    ROBOTIC = "robotic"
    MANUAL_FLATBED = "manual_flatbed"
    UNSCANNABLE = "unscannable"


@dataclass(frozen=True)
class PrintCondition(JsonRecord):
    """Condition flags for one box or print."""

    mould: MouldState = MouldState.NONE
    blocking: bool = False
    silver_dust: bool = False
    annotations_or_adhesives: bool = False
    curling_or_creases: bool = False
    rips_or_peeling: RipDamage = RipDamage.NONE

    @property
    def any_issue(self) -> bool:
        return (
            self.mould is not MouldState.NONE
            or self.blocking
            or self.silver_dust
            or self.annotations_or_adhesives
            or self.curling_or_creases
            or self.rips_or_peeling is not RipDamage.NONE
        )


@dataclass(frozen=True)
class RemediationPlan(JsonRecord):
    """Ordered remediation steps plus routing for one box or print."""

    steps: tuple[Step, ...]
    routing: Routing
    scan_route: ScanRoute


def _derive_plan(condition: PrintCondition) -> RemediationPlan:
    steps: list[Step] = []
    routing = (
        Routing.MOULD_ISOLATED if condition.mould is not MouldState.NONE else Routing.STANDARD
    )
    if condition.mould is not MouldState.NONE:
        steps.append(Step.CLEAN_MOULD)
    if condition.blocking:
        steps.append(Step.SEPARATE_BLOCKED)
    if condition.silver_dust:
        steps.append(Step.DRY_CLEAN_SILVER)
    if condition.annotations_or_adhesives:
        steps.append(Step.SOLVENT_CLEAN)
    if condition.curling_or_creases:
        steps.append(Step.HUMIDIFY_AND_PRESS)

    if condition.rips_or_peeling is RipDamage.EXTENSIVE:
        return RemediationPlan(tuple(steps), routing, ScanRoute.UNSCANNABLE)

    if condition.rips_or_peeling is RipDamage.MINOR:
        steps.append(Step.SLEEVE_PROTECT)
        scan_route = ScanRoute.MANUAL_FLATBED
    else:
        scan_route = ScanRoute.ROBOTIC
    steps.append(Step.VACUUM_PACK)
    return RemediationPlan(tuple(steps), routing, scan_route)


# the 144 canonical conditions, in `all_conditions` order; the sampler
# returns these instances, so a sample holds references, not records
_CONDITIONS = tuple(
    PrintCondition(*values)
    for values in itertools.product(MouldState, *((False, True),) * 4, RipDamage)
)
# keyed by identity, which the table keeps alive: hashing a condition
# would call the Python-level Enum.__hash__ twice per lookup
_PLANS = {id(c): _derive_plan(c) for c in _CONDITIONS}


def plan_remediation(condition: PrintCondition) -> RemediationPlan:
    """Derive the remediation plan for a condition.

    Steps follow the inspection order. Any mould isolates the material in
    a separate moisture-free pipeline. Extensive peeling ends the plan:
    nothing downstream can be done and the prints cannot be scanned.
    Sleeved prints are too delicate for robot handling and go to the
    manual flatbed. A canonical condition's plan was derived at import
    and is returned as is; any other condition's is derived on the call.
    """
    plan = _PLANS.get(id(condition))
    return _derive_plan(condition) if plan is None else plan


@dataclass(frozen=True)
class IssueRates(JsonRecord):
    """Per-issue probabilities for the box-condition sampler.

    Defaults are the archive's observed shares: 250, 26, 2825, 579, 2823,
    259 and 291 affected boxes out of 16,634 total, with 6,802 (41%)
    needing at least one intervention.
    """

    mould: float = 0.015
    blocking: float = 0.002
    cleaning: float = 0.17
    tape: float = 0.035
    curling: float = 0.17
    ripped: float = 0.020
    emulsion_peeling: float = 0.018
    any_intervention: float = 0.41

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"rate {f.name} must lie in [0, 1], got {value}")

    def issue_probabilities(self) -> tuple[float, ...]:
        """The seven sampled issue rates, in draw order."""
        return (
            self.mould,
            self.blocking,
            self.cleaning,
            self.tape,
            self.curling,
            self.ripped,
            self.emulsion_peeling,
        )


def independent_any_intervention_rate(rates: IssueRates) -> float:
    """Share of boxes with at least one issue if issues were independent.

    1 - prod(1 - p_i). The archive observed 41%, above this figure, so the
    true joint distribution cannot be the independent one.
    """
    product = 1.0
    for p in rates.issue_probabilities():
        product *= 1.0 - p
    return 1.0 - product


def implied_rips_or_peeling_rate(rates: IssueRates) -> float:
    """Probability the merged rips-or-peeling flag is set under independence.

    Rips and emulsion peeling are tallied separately in the source rates
    but land on a single condition field.
    """
    return 1.0 - (1.0 - rates.ripped) * (1.0 - rates.emulsion_peeling)


ACTIVE_MOULD_SHARE = 0.5  # share of sampled mould that is active, not dormant
# boxes one sample may draw; each costs one 8 B list slot while the sample
# is held (8.4 MB for 1,000,000), since boxes share the canonical conditions
MAX_SAMPLE_BOXES = 1_000_000


def _draw_condition(
    draw, probabilities, lows, highs, mix: float, extensive_share: float
) -> PrintCondition:
    """One box from the uniform stream `draw`: with probability `mix` one
    shared draw u sets issue i when lows[i] <= u < highs[i], otherwise
    each issue i has its own draw below probabilities[i]."""
    if mix and draw() < mix:
        u = draw()
        l1, l2, l3, l4, l5, l6, l7 = lows
        h1, h2, h3, h4, h5, h6, h7 = highs
        mould_hit, blocking, cleaning, tape, curling, ripped, peeling = (
            l1 <= u < h1,
            l2 <= u < h2,
            l3 <= u < h3,
            l4 <= u < h4,
            l5 <= u < h5,
            l6 <= u < h6,
            l7 <= u < h7,
        )
    else:
        p1, p2, p3, p4, p5, p6, p7 = probabilities
        mould_hit, blocking, cleaning, tape, curling, ripped, peeling = (
            draw() < p1,
            draw() < p2,
            draw() < p3,
            draw() < p4,
            draw() < p5,
            draw() < p6,
            draw() < p7,
        )

    # indices into the members of MouldState and RipDamage, in order
    mould = 0
    if mould_hit:
        mould = 2 if draw() < ACTIVE_MOULD_SHARE else 1
    rips = 0
    if ripped or peeling:
        rips = 2 if draw() < extensive_share else 1
    return _CONDITIONS[
        ((((mould * 2 + blocking) * 2 + cleaning) * 2 + tape) * 2 + curling) * 3 + rips
    ]


def sample_boxes(
    n: int,
    seed: int,
    rates: IssueRates,
    *,
    dependence: float = 0.0,
    extensive_share: float = 0.0,
) -> list[PrintCondition]:
    """Draw `n` box conditions from a single stream seeded with `seed`;
    identical seeds yield identical conditions.

    `dependence` in [-1, 1] mixes the independent draw with a fully
    comonotone draw (positive values: issues co-occur more) or a disjoint
    draw (negative values: issues spread over more boxes). Marginal rates
    are preserved exactly in both directions. The disjoint mixture needs
    the issue rates to sum to at most 1. Sampled mould is active with
    probability `ACTIVE_MOULD_SHARE`, otherwise dormant. One call draws
    at least 1 and at most `MAX_SAMPLE_BOXES` boxes. Each box is one of the
    shared instances that `all_conditions` lists.
    """
    if not 1 <= n <= MAX_SAMPLE_BOXES:
        raise DomainError(f"sample count must lie in [1, {MAX_SAMPLE_BOXES:,}], got {n}")
    if not -1.0 <= dependence <= 1.0:
        raise DomainError(f"dependence must lie in [-1, 1], got {dependence}")
    probabilities = rates.issue_probabilities()
    if dependence < 0.0 and sum(probabilities) > 1.0:
        raise DomainError("disjoint mixture requires issue rates summing to at most 1")
    if not 0.0 <= extensive_share <= 1.0:
        raise DomainError("extensive_share must lie in [0, 1]")
    # the shared draw's interval per issue: [0, p) for the comonotone draw,
    # consecutive intervals for the disjoint one
    if dependence < 0.0:
        lows = tuple(itertools.accumulate(probabilities[:-1], initial=0.0))
        highs = tuple(low + p for low, p in zip(lows, probabilities))
    else:
        lows, highs = (0.0,) * len(probabilities), probabilities
    draw = random.Random(seed).random
    mix = abs(dependence)
    return [
        _draw_condition(draw, probabilities, lows, highs, mix, extensive_share)
        for _ in range(n)
    ]


@dataclass(frozen=True)
class ObservedRates(JsonRecord):
    """Empirical issue frequencies over a batch of conditions.

    `rips_or_peeling` is the merged frequency of the two damage sources;
    the condition record does not distinguish them.
    """

    n: int
    mould: float
    blocking: float
    cleaning: float
    tape: float
    curling: float
    rips_or_peeling: float
    any_intervention: float


def aggregate_rates(conditions: Sequence[PrintCondition]) -> ObservedRates:
    """Empirical per-issue frequencies and the share needing any work."""
    n = len(conditions)
    if n == 0:
        raise DomainError("cannot aggregate an empty list of conditions")
    # a sample holds a few distinct instances many times over: count each
    # instance's boxes (in C, by identity) and read each instance once
    counts = collections.Counter(map(id, conditions))
    instances = dict(zip(map(id, conditions), conditions))
    mould = blocking = cleaning = tape = curling = rips = any_hit = 0
    for key, k in counts.items():
        c = instances[key]
        mould += k * (c.mould is not MouldState.NONE)
        blocking += k * c.blocking
        cleaning += k * c.silver_dust
        tape += k * c.annotations_or_adhesives
        curling += k * c.curling_or_creases
        rips += k * (c.rips_or_peeling is not RipDamage.NONE)
        any_hit += k * c.any_issue
    return ObservedRates(
        n=n,
        mould=mould / n,
        blocking=blocking / n,
        cleaning=cleaning / n,
        tape=tape / n,
        curling=curling / n,
        rips_or_peeling=rips / n,
        any_intervention=any_hit / n,
    )


def all_conditions() -> list[PrintCondition]:
    """Every condition combination (3 mould states x 4 flags x 3 rip states),
    in field order with the last field varying fastest."""
    return list(_CONDITIONS)
