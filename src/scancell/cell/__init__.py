"""Scanning-cell simulation and closed-form throughput figures."""

from .config import (
    ALWAYS_PRESENT,
    NEVER_PRESENT,
    CellConfig,
    HandlingTime,
    WeeklySchedule,
)
from .sim import SimTrace, simulate
from .throughput import (
    HUMAN_OPERATED,
    ROBOTIC,
    FleetRates,
    ProductivityRatio,
    ThroughputReport,
    UtilizationReport,
    WorkforceParams,
    fleet_throughput,
    observed_vs_theoretical,
    productivity_ratio,
    theoretical_throughput,
    utilization_fraction,
)

__all__ = [
    "ALWAYS_PRESENT",
    "NEVER_PRESENT",
    "CellConfig",
    "HandlingTime",
    "WeeklySchedule",
    "SimTrace",
    "simulate",
    "HUMAN_OPERATED",
    "ROBOTIC",
    "FleetRates",
    "ProductivityRatio",
    "ThroughputReport",
    "UtilizationReport",
    "WorkforceParams",
    "fleet_throughput",
    "observed_vs_theoretical",
    "productivity_ratio",
    "theoretical_throughput",
    "utilization_fraction",
]
