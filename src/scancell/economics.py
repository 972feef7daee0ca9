"""Fixed and variable cost model for scanning pipeline variants.

Money is held as exact rationals (`fractions.Fraction` of GBP) so that
break-even thresholds in the millions of scans carry no float drift; the
published per-scan figure of 0.0075 GBP is sub-pence, which rules out an
integer minor-unit representation. Display values are floats rounded at
the edge.

All functions are pure.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .cell.throughput import fleet_throughput, theoretical_throughput
from .codec import JsonRecord
from .errors import ConfigError, DomainError

Money = Fraction
MoneyLike = Union[int, float, str, Fraction]


def as_money(value: MoneyLike) -> Money:
    """Exact GBP amount. Floats convert via their decimal string form; a
    bool is not an amount."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"money amount must be a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"money amount must be finite, got {value}")
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class CostItem(JsonRecord):
    label: str
    unit_cost: Money
    quantity: int

    def __post_init__(self) -> None:
        if self.unit_cost < 0:
            raise DomainError(f"unit cost for {self.label!r} must be non-negative")
        if self.quantity < 0:
            raise DomainError(f"quantity for {self.label!r} must be non-negative")

    @property
    def total(self) -> Money:
        return self.unit_cost * self.quantity


@dataclass(frozen=True)
class CostParams(JsonRecord):
    """Cost structure of one pipeline variant.

    `fixed_total_override` lets a published headline figure stand even
    when it disagrees with the itemization; both remain inspectable. Its
    JSON key is `fixed_total`.
    """

    per_scan_variable: Money
    fixed_items: tuple[CostItem, ...] = ()
    fixed_total_override: Money | None = field(default=None, metadata={"json": "fixed_total"})
    weekly_capacity: float | None = None

    def __post_init__(self) -> None:
        if self.per_scan_variable < 0:
            raise DomainError("per-scan variable cost must be non-negative")
        if self.fixed_total_override is not None and self.fixed_total_override < 0:
            raise DomainError("fixed total must be non-negative")
        if not self.fixed_items and self.fixed_total_override is None:
            raise DomainError("provide fixed_items, a fixed total, or both")
        if self.weekly_capacity is not None and not 0 < self.weekly_capacity < math.inf:
            raise DomainError("weekly capacity must be finite and positive when given")

    @property
    def fixed_total(self) -> Money:
        if self.fixed_total_override is not None:
            return self.fixed_total_override
        return self.itemized_total

    @property
    def itemized_total(self) -> Money:
        return sum((item.total for item in self.fixed_items), Fraction(0))

    def to_json_dict(self) -> dict:
        """Items are written as [label, unit_cost, quantity] rows, and keys
        whose value is None are left out."""
        out = {key: value for key, value in super().to_json_dict().items() if value is not None}
        out["fixed_items"] = [list(item.values()) for item in out["fixed_items"]]
        return out

    @classmethod
    def from_json_dict(cls, data) -> "CostParams":
        rows = data.get("fixed_items") if isinstance(data, dict) else None
        if isinstance(rows, list):
            data = {**data, "fixed_items": [_item_fields(row) for row in rows]}
        return super().from_json_dict(data)


def _item_fields(row) -> dict:
    if not (isinstance(row, list) and len(row) == 3):
        raise ConfigError(
            f"a fixed item is a [label, unit_cost, quantity] row, got {reprlib.repr(row)}"
        )
    return dict(zip(("label", "unit_cost", "quantity"), row))


ROBOTIC_BENCHMARK_ITEMS = (
    CostItem("engineered table housing robot and scanner pair", as_money(80_000), 4),
    CostItem("robotic arm", as_money(36_000), 4),
    CostItem("scanner", as_money(5_000), 8),
    CostItem("scanner-lid lifting automation", as_money(350), 8),
    CostItem("manual scanner for fragile prints", as_money(5_000), 1),
)
MANUAL_BENCHMARK_ITEMS = (CostItem("scanner", as_money(5_000), 2),)

# Published headline fixed cost; 350 GBP above what the itemization sums
# to. Both figures are preserved rather than reconciled.
ROBOTIC_HEADLINE_FIXED_GBP = as_money(512_150)
MANUAL_FIXED_GBP = as_money(10_000)
ROBOTIC_PER_SCAN_GBP = as_money("0.0075")
MANUAL_PER_SCAN_GBP = as_money("0.22")
ROBOTIC_WEEKLY_CAPACITY = fleet_throughput(8).scans_per_week
MANUAL_WEEKLY_CAPACITY = theoretical_throughput("human_operated").scans_per_worker_week


def robotic_benchmark() -> CostParams:
    """Benchmark robotic pipeline: 4 robots, 8 scanners, 1 manual spare.

    The published 512,150 GBP fixed total overrides the 511,800 GBP
    itemization.
    """
    return CostParams(
        per_scan_variable=ROBOTIC_PER_SCAN_GBP,
        fixed_items=ROBOTIC_BENCHMARK_ITEMS,
        fixed_total_override=ROBOTIC_HEADLINE_FIXED_GBP,
        weekly_capacity=ROBOTIC_WEEKLY_CAPACITY,
    )


def manual_benchmark() -> CostParams:
    """Benchmark manual pipeline: one full-time worker on two scanners."""
    return CostParams(
        per_scan_variable=MANUAL_PER_SCAN_GBP,
        fixed_items=MANUAL_BENCHMARK_ITEMS,
        fixed_total_override=MANUAL_FIXED_GBP,
        weekly_capacity=MANUAL_WEEKLY_CAPACITY,
    )


def total_cost(params: CostParams, n: int) -> Money:
    if n < 0:
        raise DomainError("scan count must be non-negative")
    return params.fixed_total + params.per_scan_variable * n


def cost_per_scan(params: CostParams, n: int) -> Money:
    """Average cost per scan after `n` scans: fixed/n + variable."""
    if n < 1:
        raise DomainError("cost per scan needs at least one scan")
    return params.fixed_total / n + params.per_scan_variable


def break_even(a: CostParams, b: CostParams) -> int:
    """Smallest scan count at which variant `a` is no more expensive than `b`.

    Closed form ceil((fixed_a - fixed_b) / (var_b - var_a)) in the
    interesting case; raises when `a` never catches up.
    """
    if total_cost(a, 1) <= total_cost(b, 1):
        return 1
    delta_var = b.per_scan_variable - a.per_scan_variable
    if delta_var <= 0:
        raise DomainError(
            "no break-even point: variant a starts more expensive and its"
            " per-scan cost is not lower"
        )
    delta_fixed = a.fixed_total - b.fixed_total
    return max(1, math.ceil(delta_fixed / delta_var))


def cost_halving_point(a: CostParams, b: CostParams) -> int:
    """Smallest scan count at which `a` costs at most half of `b` per scan."""
    if cost_per_scan(a, 1) <= cost_per_scan(b, 1) / 2:
        return 1
    slope = b.per_scan_variable / 2 - a.per_scan_variable
    if slope <= 0:
        raise DomainError(
            "no cost-halving point: variant a's per-scan cost never falls"
            " below half of variant b's"
        )
    numerator = a.fixed_total - b.fixed_total / 2
    return max(1, math.ceil(numerator / slope))


@dataclass(frozen=True)
class WeeksToVolume(JsonRecord):
    scans: int
    weekly_capacity: float
    fractional_weeks: float
    whole_weeks: int


def weeks_to_volume(n: int, weekly_capacity: float) -> WeeksToVolume:
    """Whole and fractional weeks of production needed for `n` scans."""
    if not 0 < weekly_capacity < math.inf:
        raise DomainError(f"weekly capacity must be finite and positive, got {weekly_capacity!r}")
    if n < 0:
        raise DomainError("scan count must be non-negative")
    fractional = n / weekly_capacity
    return WeeksToVolume(n, weekly_capacity, fractional, math.ceil(fractional))


def cost_curve(
    a: CostParams, b: CostParams, counts: Iterable[int]
) -> Iterator[tuple[int, float, float]]:
    """Rows of (n, per-scan cost of a, per-scan cost of b) for plotting."""
    for n in counts:
        yield n, float(cost_per_scan(a, n)), float(cost_per_scan(b, n))


# points one cost curve may have; the grid is built one point at a time
MAX_CURVE_POINTS = 100_000


def geometric_counts(start: int, stop: int, points: int) -> list[int]:
    """Roughly geometric grid of at most `MAX_CURVE_POINTS` scan counts,
    deduplicated and sorted."""
    if start < 1 or stop < start or points < 2:
        raise DomainError("need 1 <= start <= stop and at least two points")
    if points > MAX_CURVE_POINTS:
        raise DomainError(f"a curve has at most {MAX_CURVE_POINTS:,} points, got {points}")
    ratio = (stop / start) ** (1.0 / (points - 1))
    counts = sorted({int(round(start * ratio**i)) for i in range(points)})
    return [max(1, c) for c in counts]
