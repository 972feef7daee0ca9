"""Closed-form throughput, productivity and utilization figures.

Each scanner produces a 1200 ppi scan in 45 seconds whichever agent loads
it. A human continuously tending two scanners reaches 50 scans per
scanner-hour; the robot's absolute-reference loading cycle averages 27
scans per scanner-hour (54 per robot) but runs around the clock, and one
worker keeps four robots and eight scanners loaded in 2 hours a day (2/7
of a full-time position).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..codec import JsonRecord
from ..errors import DomainError

HOURS_PER_WEEK = 168.0


@dataclass(frozen=True)
class ThroughputReport(JsonRecord):
    """Rates for one staffing mode or one simulation run.

    Simulation-only fields (counts, utilizations, stall totals) are None
    for closed-form reports; weekly rates extrapolate the hourly rate.
    """

    mode: str
    scans_per_scanner_hour: float
    scans_per_hour: float
    scans_per_scanner_week: float
    scans_per_worker_week: float | None
    scans_completed: int = 0
    per_scanner_scans: tuple[int, ...] | None = None
    horizon_hours: float | None = None
    robot_utilization: float | None = None
    scanner_utilization: float | None = None
    stall_seconds: float = 0.0
    starved_seconds: float = 0.0


@dataclass(frozen=True)
class WorkforceParams:
    """Staffing assumptions behind a closed-form throughput figure."""

    scans_per_scanner_hour: float
    scanners_per_station: int
    scanners_per_worker: int
    hours_per_week: float
    worker_fte: Fraction


HUMAN_OPERATED = WorkforceParams(
    scans_per_scanner_hour=50.0,
    scanners_per_station=2,
    scanners_per_worker=2,
    hours_per_week=35.0,
    worker_fte=Fraction(1),
)

ROBOTIC = WorkforceParams(
    scans_per_scanner_hour=27.0,
    scanners_per_station=2,
    scanners_per_worker=8,
    hours_per_week=HOURS_PER_WEEK,
    worker_fte=Fraction(2, 7),
)

MODES = {"human_operated": HUMAN_OPERATED, "robotic": ROBOTIC}


def theoretical_throughput(mode: str) -> ThroughputReport:
    """Closed-form rates for a staffing mode; no simulation involved."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {sorted(MODES)}")
    params = MODES[mode]
    per_scanner_week = params.scans_per_scanner_hour * params.hours_per_week
    per_worker_week = float(
        Fraction(per_scanner_week).limit_denominator(10**9)
        * params.scanners_per_worker
        / params.worker_fte
    )
    return ThroughputReport(
        mode=mode,
        scans_per_scanner_hour=params.scans_per_scanner_hour,
        scans_per_hour=params.scans_per_scanner_hour * params.scanners_per_station,
        scans_per_scanner_week=per_scanner_week,
        scans_per_worker_week=per_worker_week,
    )


@dataclass(frozen=True)
class FleetRates(JsonRecord):
    n_scanners: int
    scans_per_day: float
    scans_per_week: float


def fleet_throughput(n_scanners: int) -> FleetRates:
    """Round-the-clock ceiling for a fleet of robotic scanners."""
    if n_scanners < 1:
        raise DomainError("fleet must have at least one scanner")
    per_day = ROBOTIC.scans_per_scanner_hour * 24 * n_scanners
    return FleetRates(n_scanners, per_day, per_day * 7)


@dataclass(frozen=True)
class ProductivityRatio(JsonRecord):
    per_scanner: float
    per_worker: float


def productivity_ratio(
    robotic: ThroughputReport, manual: ThroughputReport
) -> ProductivityRatio:
    """Scanner-week and worker-week rate ratios of two reports."""
    if manual.scans_per_scanner_week <= 0 or not manual.scans_per_worker_week:
        raise DomainError("manual rates must be positive to form a ratio")
    if robotic.scans_per_worker_week is None:
        raise DomainError("robotic report lacks a worker-week rate")
    return ProductivityRatio(
        per_scanner=robotic.scans_per_scanner_week / manual.scans_per_scanner_week,
        per_worker=robotic.scans_per_worker_week / manual.scans_per_worker_week,
    )


def utilization_fraction(observed: float, theoretical: float) -> float:
    """Observed over theoretical rate."""
    if theoretical <= 0:
        raise DomainError("theoretical rate must be positive")
    if not 0 <= observed < math.inf:
        raise DomainError(f"observed rate must be finite and non-negative, got {observed!r}")
    return observed / theoretical


MONDAY_AGGREGATION_NOTE = (
    "production statistics are recorded on weekdays only, so Monday figures "
    "aggregate weekend output; Mondays are excluded from daily-maximum "
    "comparisons"
)


@dataclass(frozen=True)
class UtilizationReport(JsonRecord):
    observed_daily: float
    observed_weekly: float
    theoretical_daily: float
    theoretical_weekly: float
    daily_fraction: float
    weekly_fraction: float
    daily_at_or_above_theoretical: bool
    notes: tuple[str, ...]


def observed_vs_theoretical(
    observed_daily: float,
    observed_weekly: float,
    fleet: FleetRates,
) -> UtilizationReport:
    """Compare observed daily/weekly maxima against the fleet ceiling.

    Daily figures must already exclude Monday records (which fold in
    weekend production); the note restates the convention, and a daily
    maximum at or above the ceiling is flagged rather than an error.
    """
    daily_fraction = utilization_fraction(observed_daily, fleet.scans_per_day)
    weekly_fraction = utilization_fraction(observed_weekly, fleet.scans_per_week)
    notes = [MONDAY_AGGREGATION_NOTE]
    at_or_above = daily_fraction >= 1.0
    if at_or_above:
        notes.append(
            "observed daily maximum meets or exceeds the theoretical ceiling "
            f"({observed_daily:.0f} vs {fleet.scans_per_day:.0f})"
        )
    return UtilizationReport(
        observed_daily=observed_daily,
        observed_weekly=observed_weekly,
        theoretical_daily=fleet.scans_per_day,
        theoretical_weekly=fleet.scans_per_week,
        daily_fraction=daily_fraction,
        weekly_fraction=weekly_fraction,
        daily_at_or_above_theoretical=at_or_above,
        notes=tuple(notes),
    )
