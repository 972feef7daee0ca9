import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scancell import preservation
from scancell.errors import DomainError
from scancell.preservation import (
    IssueRates,
    MouldState,
    ObservedRates,
    PrintCondition,
    RemediationPlan,
    RipDamage,
    Routing,
    ScanRoute,
    Step,
    aggregate_rates,
    all_conditions,
    implied_rips_or_peeling_rate,
    independent_any_intervention_rate,
    plan_remediation,
    sample_boxes,
)

FLOWCHART_ORDER = [
    Step.CLEAN_MOULD,
    Step.SEPARATE_BLOCKED,
    Step.DRY_CLEAN_SILVER,
    Step.SOLVENT_CLEAN,
    Step.HUMIDIFY_AND_PRESS,
    Step.SLEEVE_PROTECT,
    Step.VACUUM_PACK,
]

SAMPLES_SHA256 = "cf7115669653d4a230bd980b359587d5c4f6076a992617389818c79a520b94cb"
CANONICAL = all_conditions()


def draw_condition(
    draw, probabilities, lows, highs, mix: float, extensive_share: float
) -> PrintCondition:
    """Reference sampler, one box from the uniform stream `draw`: with
    probability `mix` one shared draw u sets issue i when lows[i] <= u <
    highs[i], otherwise each issue i has its own draw below probabilities[i]."""
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
        mould = 2 if draw() < preservation.ACTIVE_MOULD_SHARE else 1
    rips = 0
    if ripped or peeling:
        rips = 2 if draw() < extensive_share else 1
    return CANONICAL[
        ((((mould * 2 + blocking) * 2 + cleaning) * 2 + tape) * 2 + curling) * 3 + rips
    ]


def reference_sample(n, seed, rates, dependence, extensive_share) -> list[PrintCondition]:
    probabilities = rates.issue_probabilities()
    if dependence < 0.0:
        lows = tuple(itertools.accumulate(probabilities[:-1], initial=0.0))
        highs = tuple(low + p for low, p in zip(lows, probabilities))
    else:
        lows, highs = (0.0,) * len(probabilities), probabilities
    draw = random.Random(seed).random
    return [
        draw_condition(draw, probabilities, lows, highs, abs(dependence), extensive_share)
        for _ in range(n)
    ]


@st.composite
def sampler_inputs(draw):
    # rates of at most 1/7 each admit the disjoint mixture
    ceiling = draw(st.sampled_from([1.0, 1.0 / 7.0]))
    rates = IssueRates(*(draw(st.floats(0.0, ceiling)) for _ in range(7)))
    floor = -1.0 if sum(rates.issue_probabilities()) <= 1.0 else 0.0
    return (
        draw(st.integers(1, 500)),
        draw(st.integers(0, 2**64)),
        rates,
        draw(st.floats(floor, 1.0)),
        draw(st.floats(0.0, 1.0)),
    )


class TestPlanner:
    def test_all_clear(self):
        plan = plan_remediation(PrintCondition())
        assert plan == RemediationPlan(
            (Step.VACUUM_PACK,), Routing.STANDARD, ScanRoute.ROBOTIC
        )

    def test_dormant_mould_with_curling(self):
        plan = plan_remediation(
            PrintCondition(mould=MouldState.DORMANT, curling_or_creases=True)
        )
        assert plan.steps == (
            Step.CLEAN_MOULD,
            Step.HUMIDIFY_AND_PRESS,
            Step.VACUUM_PACK,
        )
        assert plan.routing is Routing.MOULD_ISOLATED
        assert plan.scan_route is ScanRoute.ROBOTIC

    def test_extensive_peeling_is_unscannable(self):
        plan = plan_remediation(PrintCondition(rips_or_peeling=RipDamage.EXTENSIVE))
        assert plan.scan_route is ScanRoute.UNSCANNABLE
        assert plan.steps == ()

    def test_minor_rips_sleeve_and_manual_scan(self):
        plan = plan_remediation(PrintCondition(rips_or_peeling=RipDamage.MINOR))
        assert plan.steps == (Step.SLEEVE_PROTECT, Step.VACUUM_PACK)
        assert plan.scan_route is ScanRoute.MANUAL_FLATBED

    def test_exhaustive_combinations(self):
        conditions = all_conditions()
        assert len(conditions) == 144
        distinct_plans = set()
        for condition in conditions:
            plan = plan_remediation(condition)
            order = [FLOWCHART_ORDER.index(s) for s in plan.steps]
            assert order == sorted(order), condition
            assert len(set(plan.steps)) == len(plan.steps)
            if plan.scan_route is not ScanRoute.UNSCANNABLE:
                assert plan.steps[-1] is Step.VACUUM_PACK
            if Step.CLEAN_MOULD in plan.steps:
                assert plan.steps[0] is Step.CLEAN_MOULD
            if condition.mould is not MouldState.NONE:
                assert plan.routing is Routing.MOULD_ISOLATED
            else:
                assert plan.routing is Routing.STANDARD
            distinct_plans.add((condition.mould is not MouldState.NONE,
                                condition.blocking, condition.silver_dust,
                                condition.annotations_or_adhesives,
                                condition.curling_or_creases,
                                condition.rips_or_peeling))
        # planner input space: mould present or not, four flags, three rip states
        assert len(distinct_plans) == 96

    def test_dormant_and_active_mould_plan_identically(self):
        base = dict(blocking=True, curling_or_creases=True)
        dormant = plan_remediation(PrintCondition(mould=MouldState.DORMANT, **base))
        active = plan_remediation(PrintCondition(mould=MouldState.ACTIVE, **base))
        assert dormant == active

    def test_canonical_and_freshly_built_conditions_plan_alike(self):
        for condition in all_conditions():
            fresh = PrintCondition(**dataclasses.asdict(condition))
            assert fresh is not condition
            plan = plan_remediation(condition)
            assert plan == plan_remediation(fresh) == preservation._derive_plan(fresh)
            assert plan_remediation(condition) is plan_remediation(condition)


class TestSampler:
    def test_degenerate_zero_rates(self):
        zero = IssueRates(0, 0, 0, 0, 0, 0, 0, 0)
        assert sample_boxes(1, 7, zero)[0] == PrintCondition()

    def test_degenerate_unit_rates(self):
        one = IssueRates(1, 1, 1, 1, 1, 1, 1, 1)
        condition = sample_boxes(1, 7, one)[0]
        assert condition.mould is not MouldState.NONE
        assert condition.blocking and condition.silver_dust
        assert condition.annotations_or_adhesives and condition.curling_or_creases
        assert condition.rips_or_peeling is not RipDamage.NONE

    def test_seed_determinism(self):
        rates = IssueRates()
        assert sample_boxes(50, 123, rates) == sample_boxes(50, 123, rates)
        assert sample_boxes(50, 123, rates) != sample_boxes(50, 124, rates)

    def test_monte_carlo_recovers_mould_rate(self):
        rates = IssueRates()
        observed = aggregate_rates(sample_boxes(100_000, 42, rates))
        assert observed.mould == pytest.approx(0.015, abs=0.002)

    def test_monte_carlo_recovers_all_configured_rates(self):
        rates = IssueRates()
        observed = aggregate_rates(sample_boxes(100_000, 42, rates))
        assert observed.blocking == pytest.approx(rates.blocking, abs=0.002)
        assert observed.cleaning == pytest.approx(rates.cleaning, abs=0.002)
        assert observed.tape == pytest.approx(rates.tape, abs=0.002)
        assert observed.curling == pytest.approx(rates.curling, abs=0.002)
        assert observed.rips_or_peeling == pytest.approx(
            implied_rips_or_peeling_rate(rates), abs=0.002
        )

    def test_extensive_share(self):
        rates = IssueRates(0, 0, 0, 0, 0, 1.0, 0, 0)
        condition = sample_boxes(1, 3, rates, extensive_share=1.0)[0]
        assert condition.rips_or_peeling is RipDamage.EXTENSIVE

    def test_negative_dependence_raises_any_intervention(self):
        rates = IssueRates()
        independent = aggregate_rates(sample_boxes(40_000, 9, rates))
        spread = aggregate_rates(sample_boxes(40_000, 9, rates, dependence=-0.7))
        assert spread.any_intervention > independent.any_intervention
        # marginals preserved by the mixture
        assert spread.curling == pytest.approx(rates.curling, abs=0.006)

    def test_positive_dependence_lowers_any_intervention(self):
        rates = IssueRates()
        independent = aggregate_rates(sample_boxes(40_000, 9, rates))
        clustered = aggregate_rates(sample_boxes(40_000, 9, rates, dependence=0.7))
        assert clustered.any_intervention < independent.any_intervention

    def test_dependence_bounds(self):
        with pytest.raises(DomainError):
            sample_boxes(1, 0, IssueRates(), dependence=1.5)
        heavy = IssueRates(cleaning=0.6, curling=0.6)  # issue rates summing past 1
        for kwargs, fragment in (
            ({"rates": heavy, "dependence": -0.5}, "disjoint mixture requires issue rates"),
            ({"rates": IssueRates(), "extensive_share": 1.5}, "extensive_share must lie in"),
        ):
            with pytest.raises(DomainError, match=fragment):
                sample_boxes(1, 0, **kwargs)

    def test_rate_validation(self):
        with pytest.raises(DomainError):
            IssueRates(mould=1.2)

    def test_samples_pinned(self):
        # sha256 over the CSV text of 48 samples: seeds 1-3 x the disjoint
        # mixture, the independent draw, a partial and a fully comonotone
        # mixture x no or some extensive damage
        header = ",".join(f.name for f in dataclasses.fields(PrintCondition))
        digest = hashlib.sha256()
        for seed in (1, 2, 3):
            for dependence in (-0.5, 0.0, 0.3, 1.0):
                for extensive_share in (0.0, 0.4):
                    boxes = sample_boxes(
                        20_000, seed, IssueRates(),
                        dependence=dependence, extensive_share=extensive_share,
                    )
                    rows = (",".join(map(str, c.to_json_dict().values())) for c in boxes)
                    digest.update(("\n".join([header, *rows]) + "\n").encode())
        assert digest.hexdigest() == SAMPLES_SHA256

    @pytest.mark.parametrize("dependence", [-0.5, 0.0, 0.6])
    def test_samples_hold_only_canonical_instances(self, dependence):
        canonical = {id(c) for c in all_conditions()}
        boxes = sample_boxes(10_000, 4, IssueRates(), dependence=dependence, extensive_share=0.4)
        assert all(id(box) in canonical for box in boxes)
        assert len({id(box) for box in boxes}) > 20

    def test_sample_memory_is_the_list_alone(self):
        # 100,000 references take 0.8 MB; one record per box took 13.6 MB
        tracemalloc.start()
        try:
            boxes = sample_boxes(100_000, 1, IssueRates(), dependence=0.3, extensive_share=0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(boxes) == 100_000
        assert peak < 1.5e6

    def test_sample_size_capped_before_drawing(self, monkeypatch):
        stream = mock.Mock(side_effect=AssertionError("a stream was seeded"))
        monkeypatch.setattr(preservation, "random", SimpleNamespace(Random=stream))
        with pytest.raises(DomainError, match="1,000,000"):
            sample_boxes(preservation.MAX_SAMPLE_BOXES + 1, 0, IssueRates())

    @settings(max_examples=200, deadline=None)
    @given(sampler_inputs())
    def test_matches_the_per_box_reference(self, inputs):
        n, seed, rates, dependence, extensive_share = inputs
        boxes = sample_boxes(
            n, seed, rates, dependence=dependence, extensive_share=extensive_share
        )
        expected = reference_sample(n, seed, rates, dependence, extensive_share)
        assert all(box is reference for box, reference in zip(boxes, expected, strict=True))


class TestAggregation:
    def test_single_all_clear(self):
        observed = aggregate_rates([PrintCondition()])
        assert observed.any_intervention == 0.0
        assert observed.mould == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            aggregate_rates([])

    def test_replaying_archive_counts(self):
        # one condition per affected box, one issue per condition; the two
        # damage rows share the merged rips_or_peeling field
        conditions = []
        conditions += [PrintCondition(mould=MouldState.DORMANT)] * 250
        conditions += [PrintCondition(blocking=True)] * 26
        conditions += [PrintCondition(silver_dust=True)] * 2825
        conditions += [PrintCondition(annotations_or_adhesives=True)] * 579
        conditions += [PrintCondition(curling_or_creases=True)] * 2823
        conditions += [PrintCondition(rips_or_peeling=RipDamage.MINOR)] * (259 + 291)
        conditions += [PrintCondition()] * (16_634 - len(conditions))
        observed = aggregate_rates(conditions)
        assert observed.n == 16_634
        assert observed.mould == pytest.approx(0.015, abs=0.0005)
        assert observed.blocking == pytest.approx(0.002, abs=0.0005)
        assert observed.cleaning == pytest.approx(0.17, abs=0.005)
        assert observed.tape == pytest.approx(0.035, abs=0.0005)
        assert observed.curling == pytest.approx(0.17, abs=0.005)
        assert observed.rips_or_peeling == pytest.approx((259 + 291) / 16_634, abs=1e-12)

    @pytest.mark.parametrize(
        "conditions",
        [
            sample_boxes(30_000, 5, IssueRates(), dependence=0.4, extensive_share=0.5),
            sample_boxes(30_000, 6, IssueRates(), dependence=-0.6),
            all_conditions() * 3,
            # freshly built, so equal conditions are distinct instances
            [dataclasses.replace(c) for c in all_conditions()]
            + [PrintCondition(silver_dust=True) for _ in range(7)],
            [PrintCondition(mould=MouldState.ACTIVE, blocking=True)],
        ],
        ids=["clustered", "spread", "canonical", "fresh", "single"],
    )
    def test_matches_the_per_box_loop(self, conditions):
        n = len(conditions)
        counts = [0] * 7
        for c in conditions:
            counts[0] += c.mould is not MouldState.NONE
            counts[1] += c.blocking
            counts[2] += c.silver_dust
            counts[3] += c.annotations_or_adhesives
            counts[4] += c.curling_or_creases
            counts[5] += c.rips_or_peeling is not RipDamage.NONE
            counts[6] += c.any_issue
        assert aggregate_rates(conditions) == ObservedRates(n, *(k / n for k in counts))

    def test_canonical_and_freshly_built_instances_mixed(self):
        # a fresh instance sends the count through the per-box instance table
        equal = CANONICAL[::5]
        fresh = [PrintCondition(*dataclasses.astuple(c)) for c in equal]
        assert not any(f is c for f, c in zip(fresh, equal))
        assert aggregate_rates(CANONICAL + fresh) == aggregate_rates(CANONICAL + equal)

    def test_independence_understates_observed_any_intervention(self):
        rates = IssueRates()
        indep = independent_any_intervention_rate(rates)
        assert indep == pytest.approx(0.371, abs=0.002)
        assert indep < rates.any_intervention
