import dataclasses
from fractions import Fraction

import pytest

from scancell.economics import (
    MAX_CURVE_POINTS,
    CostItem,
    CostParams,
    as_money,
    break_even,
    cost_curve,
    cost_halving_point,
    cost_per_scan,
    geometric_counts,
    manual_benchmark,
    robotic_benchmark,
    total_cost,
    weeks_to_volume,
)
from scancell.errors import DomainError


def itemized_robotic_benchmark():
    """The robotic benchmark without the published headline override."""
    return dataclasses.replace(robotic_benchmark(), fixed_total_override=None)


def bisect_smallest(predicate, lo=1, hi=1):
    """Independent oracle: doubling search then bisection for the smallest
    n >= lo with predicate(n) true (predicate must be monotone)."""
    while not predicate(hi):
        hi *= 2
        if hi > 10**12:
            raise AssertionError("no solution below 1e12")
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestMoney:
    def test_float_converts_exactly_via_decimal_string(self):
        assert as_money(0.0075) == Fraction(75, 10_000)
        assert as_money("0.22") == Fraction(22, 100)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            as_money(float("inf"))

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_a_bool(self, value):
        # JSON true is not 1 GBP; the codec turns the TypeError into a ConfigError
        with pytest.raises(TypeError, match="money amount must be a number"):
            as_money(value)


class TestBenchmarks:
    def test_itemized_robotic_total(self):
        assert itemized_robotic_benchmark().fixed_total == 511_800

    def test_itemized_manual_total(self):
        assert manual_benchmark().itemized_total == 10_000

    def test_headline_override_preserved(self):
        params = robotic_benchmark()
        assert params.fixed_total == 512_150
        assert params.itemized_total == 511_800

    def test_itemization_without_override(self):
        params = itemized_robotic_benchmark()
        assert params.fixed_total_override is None
        assert params.fixed_total == params.itemized_total == 511_800

    @pytest.mark.parametrize("make_params", [robotic_benchmark, manual_benchmark])
    def test_json_round_trip(self, make_params):
        params = make_params()
        assert CostParams.from_json_dict(params.to_json_dict()) == params


class TestCostPerScan:
    def test_single_scan_bears_all_fixed_cost(self):
        value = cost_per_scan(robotic_benchmark(), 1)
        assert value == Fraction(512_150) + Fraction(75, 10_000)

    def test_asymptote_is_variable_cost(self):
        params = robotic_benchmark()
        value = cost_per_scan(params, 10**12)
        assert value - params.per_scan_variable == params.fixed_total / 10**12
        assert float(value) == pytest.approx(0.0075, abs=1e-6)

    def test_manual_at_100k(self):
        assert float(cost_per_scan(manual_benchmark(), 100_000)) == pytest.approx(0.32)

    def test_zero_scans_rejected(self):
        with pytest.raises(DomainError):
            cost_per_scan(manual_benchmark(), 0)

    def test_curve_points_capped(self):
        assert len(geometric_counts(1, 10**8, MAX_CURVE_POINTS)) <= MAX_CURVE_POINTS
        with pytest.raises(DomainError, match="100,000"):
            geometric_counts(1, 10**8, MAX_CURVE_POINTS + 1)

    def test_strictly_decreasing_converging(self):
        params = robotic_benchmark()
        grid = geometric_counts(1, 10**8, 25)
        values = [cost_per_scan(params, n) for n in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > params.per_scan_variable


class TestBreakEven:
    def test_benchmark_break_even(self):
        # ceil((512,150 - 10,000) / (0.22 - 0.0075)) from the published
        # cost figures
        n = break_even(robotic_benchmark(), manual_benchmark())
        assert n == 2_363_059
        assert n == pytest.approx(2_400_000, rel=0.02)

    def test_identical_params_break_even_immediately(self):
        params = manual_benchmark()
        assert break_even(params, params) == 1

    def test_unit_construction(self):
        a = CostParams(per_scan_variable=as_money(0), fixed_total_override=as_money(100))
        b = CostParams(per_scan_variable=as_money(1), fixed_total_override=as_money(0))
        assert break_even(a, b) == 100

    def test_dominated_variant_raises(self):
        a = CostParams(per_scan_variable=as_money(2), fixed_total_override=as_money(100))
        b = CostParams(per_scan_variable=as_money(1), fixed_total_override=as_money(0))
        with pytest.raises(DomainError, match="break-even"):
            break_even(a, b)

    def test_matches_bisection_oracle(self):
        a, b = robotic_benchmark(), manual_benchmark()
        oracle = bisect_smallest(lambda n: total_cost(a, n) <= total_cost(b, n))
        assert break_even(a, b) == oracle

    def test_boundary_ordering(self):
        a, b = robotic_benchmark(), manual_benchmark()
        n = break_even(a, b)
        assert total_cost(a, n) <= total_cost(b, n)
        assert total_cost(a, n - 1) > total_cost(b, n - 1)
        # at the crossing the gap is smaller than one variable-cost unit
        assert total_cost(b, n) - total_cost(a, n) < b.per_scan_variable


class TestCostHalving:
    def test_benchmark_halving_point(self):
        n = cost_halving_point(robotic_benchmark(), manual_benchmark())
        assert n == 4_947_805
        assert n == pytest.approx(5_000_000, rel=0.02)

    def test_identical_params_never_halve(self):
        params = manual_benchmark()
        with pytest.raises(DomainError, match="halving"):
            cost_halving_point(params, params)

    def test_already_half_at_one(self):
        a = CostParams(per_scan_variable=as_money(0), fixed_total_override=as_money(10))
        b = CostParams(per_scan_variable=as_money(0), fixed_total_override=as_money(20))
        assert cost_halving_point(a, b) == 1

    def test_matches_bisection_oracle(self):
        a, b = robotic_benchmark(), manual_benchmark()
        oracle = bisect_smallest(
            lambda n: cost_per_scan(a, n) <= cost_per_scan(b, n) / 2
        )
        assert cost_halving_point(a, b) == oracle


class TestWeeksToVolume:
    def test_break_even_duration(self):
        result = weeks_to_volume(2_363_059, 36_288)
        assert result.fractional_weeks == pytest.approx(65.1, abs=0.03)
        assert result.whole_weeks == 66
        assert abs(result.fractional_weeks - 65) <= 1

    def test_zero_scans(self):
        assert weeks_to_volume(0, 1000).whole_weeks == 0

    def test_exact_week(self):
        assert weeks_to_volume(63_504, 63_504).whole_weeks == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(DomainError):
            weeks_to_volume(100, 0)


def test_cost_curve_rows():
    rows = list(cost_curve(robotic_benchmark(), manual_benchmark(), [1, 10, 100]))
    assert [r[0] for r in rows] == [1, 10, 100]
    assert rows[0][1] == pytest.approx(512_150.0075)
    assert rows[0][2] == pytest.approx(10_000.22)
    assert all(r1[1] > r2[1] for r1, r2 in zip(rows, rows[1:]))


def test_cost_item_validation():
    with pytest.raises(DomainError):
        CostItem("bad", as_money(-1), 1)
    with pytest.raises(DomainError):
        CostParams(per_scan_variable=as_money(1))
    one = as_money(1)
    for build, fragment in (
        (lambda: CostItem("bad", one, -1), "quantity for 'bad' must be non-negative"),
        (lambda: CostParams(as_money(-1), fixed_total_override=one), "per-scan variable cost"),
        (lambda: CostParams(one, fixed_total_override=as_money(-1)), "fixed total must be"),
        (lambda: CostParams(one, fixed_total_override=one, weekly_capacity=0.0), "weekly capacity"),
        (lambda: total_cost(manual_benchmark(), -1), "scan count must be non-negative"),
    ):
        with pytest.raises(DomainError, match=fragment):
            build()
