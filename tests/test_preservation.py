import pytest

from scancell import preservation
from scancell.errors import DomainError
from scancell.preservation import (
    IssueRates,
    MouldState,
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


class TestSampler:
    def test_degenerate_zero_rates(self):
        zero = IssueRates(0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert sample_boxes(1, 7, zero)[0] == PrintCondition()

    def test_degenerate_unit_rates(self):
        one = IssueRates(1, 1, 1, 1, 1, 1, 1, 1, 0)
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
        rates = IssueRates(0, 0, 0, 0, 0, 1.0, 0, 0, 0)
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

    def test_rate_validation(self):
        with pytest.raises(DomainError):
            IssueRates(mould=1.2)

    def test_sample_size_capped_before_drawing(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a box was drawn")

        monkeypatch.setattr(preservation, "_draw_condition", draw)
        with pytest.raises(DomainError, match="1,000,000"):
            sample_boxes(preservation.MAX_SAMPLE_BOXES + 1, 0, IssueRates())


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

    def test_independence_understates_observed_any_intervention(self):
        rates = IssueRates()
        indep = independent_any_intervention_rate(rates)
        assert indep == pytest.approx(0.371, abs=0.002)
        assert indep < rates.any_intervention
