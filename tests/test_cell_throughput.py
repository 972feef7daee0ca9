import dataclasses

import pytest

from scancell.cell import (
    fleet_throughput,
    observed_vs_theoretical,
    productivity_ratio,
    theoretical_throughput,
    utilization_fraction,
)
from scancell.cell.config import HandlingTime
from scancell.cell.throughput import MONDAY_AGGREGATION_NOTE, ROBOTIC
from scancell.errors import DomainError


class TestTheoreticalThroughput:
    def test_human_rates(self):
        report = theoretical_throughput("human_operated")
        assert report.scans_per_scanner_hour == 50
        assert report.scans_per_hour == 100
        assert report.scans_per_scanner_week == 1750
        assert report.scans_per_worker_week == 3500

    def test_robotic_rates(self):
        report = theoretical_throughput("robotic")
        assert report.scans_per_scanner_hour == 27
        assert report.scans_per_hour == 54
        assert report.scans_per_scanner_week == 4536
        assert report.scans_per_worker_week == 127_008

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            theoretical_throughput("steam_powered")

    def test_robotic_rate_is_the_default_handling_cycle(self):
        # a saturated robot shares one handling cycle per scan across its station
        per_scanner = 3600 / (ROBOTIC.scanners_per_station * HandlingTime().mean_seconds)
        assert abs(ROBOTIC.scans_per_scanner_hour - per_scanner) <= 0.05


class TestFleet:
    def test_project_fleet(self):
        fleet = fleet_throughput(14)
        assert fleet.scans_per_day == 9_072
        assert fleet.scans_per_week == 63_504

    def test_single_scanner(self):
        fleet = fleet_throughput(1)
        assert fleet.scans_per_day == 27 * 24


class TestProductivityRatio:
    def test_benchmark_ratios(self):
        ratio = productivity_ratio(
            theoretical_throughput("robotic"), theoretical_throughput("human_operated")
        )
        assert ratio.per_scanner == pytest.approx(2.592, abs=1e-3)
        assert abs(ratio.per_scanner - 2.6) <= 0.05
        assert ratio.per_worker == pytest.approx(36.288, abs=1e-3)
        assert ratio.per_worker > 30

    def test_identical_reports(self):
        human = theoretical_throughput("human_operated")
        ratio = productivity_ratio(human, human)
        assert ratio.per_scanner == 1.0
        assert ratio.per_worker == 1.0

    def test_validation(self):
        robotic = theoretical_throughput("robotic")
        human = theoretical_throughput("human_operated")
        for a, b, fragment in (
            (robotic, dataclasses.replace(human, scans_per_scanner_week=0.0), "manual rates"),
            (robotic, dataclasses.replace(human, scans_per_worker_week=None), "manual rates"),
            (dataclasses.replace(robotic, scans_per_worker_week=None), human, "lacks a worker-week"),
        ):
            with pytest.raises(DomainError, match=fragment):
                productivity_ratio(a, b)


class TestObservedVsTheoretical:
    def test_weekly_maximum(self):
        report = observed_vs_theoretical(9_090, 36_084, fleet_throughput(14))
        assert report.weekly_fraction == pytest.approx(0.5682, abs=1e-4)
        assert abs(report.weekly_fraction - 0.57) <= 0.01

    def test_daily_maximum_flagged(self):
        report = observed_vs_theoretical(9_090, 36_084, fleet_throughput(14))
        assert report.daily_fraction == pytest.approx(1.002, abs=1e-3)
        assert report.daily_at_or_above_theoretical
        assert MONDAY_AGGREGATION_NOTE in report.notes
        assert any("exceeds" in note for note in report.notes)

    def test_scanner_rate_fraction(self):
        assert utilization_fraction(27, 50) == 0.54

    def test_zero_theoretical_rejected(self):
        with pytest.raises(DomainError):
            utilization_fraction(1, 0)
