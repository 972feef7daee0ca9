import dataclasses
import gc
import hashlib
import json
import math
import random
import tracemalloc
from array import array
from collections.abc import Iterator

import pytest

from scancell.acceptance import simulation_property_cases
from scancell.cell import (
    ALWAYS_PRESENT,
    NEVER_PRESENT,
    CellConfig,
    HandlingTime,
    SimTrace,
    WeeklySchedule,
    sim,
    simulate,
)
from scancell.cell.config import MAX_SCANNERS_PER_ROBOT
from scancell.cell.invariants import check_trace_invariants
from scancell.errors import ConfigError, DomainError

CALIBRATED = CellConfig(
    handling_time=HandlingTime("fixed", 66.7),
    hopper_capacity=None,
    attendance=ALWAYS_PRESENT,
)


def event(trace, i):
    """Event `i` of `trace` as (time_ms, entity, transition, cause_id), the
    four CSV columns in order, read from the columns and the vocabulary,
    with None for NO_CAUSE."""
    cause = trace.causes[i]
    entity, transition = trace.vocabulary[trace.kinds[i]]
    return trace.times[i], entity, transition, None if cause == sim.NO_CAUSE else cause


def transitions(trace, name):
    """The (time_ms, entity, transition, cause_id) records of one transition."""
    return [record for record in (event(trace, i) for i in trace.events) if record[2] == name]


class TestConfig:
    def test_defaults(self):
        config = CellConfig()
        assert config.scanners_per_robot == 2
        assert config.scan_seconds == 45.0
        assert config.handling_time.mean_seconds == 66.7
        assert config.hopper_capacity == 300
        assert config.lift_retry_limit == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            CellConfig(scan_seconds=0)
        with pytest.raises(ConfigError):
            CellConfig(hopper_capacity=0)
        with pytest.raises(ConfigError):
            CellConfig(lift_failure_prob=1.5)
        with pytest.raises(ConfigError):
            HandlingTime("triangular")
        for build, fragment in (
            (lambda: HandlingTime("fixed", 0.0), "mean must be positive"),
            (lambda: HandlingTime("lognormal", 60.0, -0.1), "spread must be non-negative"),
            (lambda: HandlingTime("uniform", 60.0, 1.0), "spread must be below 1"),
            (lambda: HandlingTime("lognormal", 1e306), "has no finite value in ms"),
            (lambda: WeeklySchedule(((7, 9.0, 17.0),)), "day must be 0-6"),
            (lambda: WeeklySchedule(((0, 17.0, 9.0),)), "invalid interval hours"),
            (lambda: CellConfig(lift_retry_limit=0), "retry limit must be at least 1"),
            (lambda: CellConfig(reload_seconds=-1.0), "reload duration must be non-negative"),
            (lambda: CellConfig(ramp_multiplier=0.0), "ramp multiplier must be positive"),
            (lambda: CellConfig(scan_seconds=-1e306), "cell scan_seconds of -1e"),
        ):
            with pytest.raises(ConfigError, match=fragment):
                build()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="hoper_capacity"):
            CellConfig.from_json_dict({"hoper_capacity": 5})
        # print_sizes was never read by the engine and is no longer a field
        with pytest.raises(ConfigError, match="print_sizes"):
            CellConfig.from_json_dict({"print_sizes": ["9x9"]})
        with pytest.raises(ConfigError, match="sigma"):
            CellConfig.from_json_dict({"handling_time": {"kind": "lognormal", "sigma": 0.2}})
        with pytest.raises(ConfigError):
            CellConfig.from_json_dict([])

    def test_mistyped_json_values_rejected(self):
        for data in (
            {"scanners_per_robot": "x"},
            {"scanners_per_robot": float("inf")},
            {"attendance": [[0, 9.0]]},
            {"handling_time": 5},
        ):
            with pytest.raises(ConfigError):
                CellConfig.from_json_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        for field in ("scan_seconds", "lift_failure_prob", "reload_seconds", "ramp_multiplier"):
            with pytest.raises(ConfigError, match="finite"):
                CellConfig(**{field: value})
        for field in ("mean_seconds", "spread"):
            with pytest.raises(ConfigError, match="finite"):
                HandlingTime("lognormal", **{field: value})

    def test_scanners_per_robot_capped(self):
        assert CellConfig(scanners_per_robot=MAX_SCANNERS_PER_ROBOT).scanners_per_robot == 1_000
        with pytest.raises(ConfigError, match="1,000"):
            CellConfig(scanners_per_robot=MAX_SCANNERS_PER_ROBOT + 1)

    def test_scan_must_round_to_one_millisecond(self):
        with pytest.raises(ConfigError, match="1 ms"):
            CellConfig(scan_seconds=1e-4)
        # the shortest accepted cycle still advances the clock and returns
        config = CellConfig(
            scan_seconds=1e-3, handling_time=HandlingTime("fixed", 1e-4), hopper_capacity=None
        )
        trace, report = simulate(config, seed=1, horizon_seconds=1.0)
        assert report.scans_completed > 0
        assert check_trace_invariants(trace, config) == []

    def test_json_round_trip(self):
        config = CellConfig(
            hopper_capacity=120,
            lift_failure_prob=0.01,
            attendance=WeeklySchedule(((0, 8.0, 18.0), (3, 9.0, 12.5))),
            handling_time=HandlingTime("uniform", 60.0, 0.2),
        )
        assert CellConfig.from_json_dict(config.to_json_dict()) == config

    def test_schedule_lookup(self):
        schedule = WeeklySchedule(((0, 9.0, 17.0),))
        assert schedule.is_present(10 * 3600)
        assert not schedule.is_present(18 * 3600)
        assert schedule.next_present_time(18 * 3600) == 7 * 24 * 3600 + 9 * 3600
        assert NEVER_PRESENT.next_present_time(0) == float("inf")


class TestCalibration:
    def test_one_hour_run_hits_published_rate(self):
        _, report = simulate(CALIBRATED, seed=1, horizon_seconds=3600)
        assert abs(report.scans_completed - 54) <= 1

    def test_hundred_hour_run_within_two_percent(self):
        _, report = simulate(CALIBRATED, seed=1, horizon_seconds=100 * 3600)
        assert report.scans_per_hour == pytest.approx(54.0, rel=0.02)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match="finite"):
            simulate(CALIBRATED, seed=1, horizon_seconds=horizon)

    @pytest.mark.parametrize(
        "config, horizon, fragment",
        [
            (CALIBRATED, -1.0, "horizon must be non-negative"),
            (CALIBRATED.to_json_dict(), 1.0, "config must be a CellConfig"),
        ],
    )
    def test_simulate_inputs_rejected(self, config, horizon, fragment):
        with pytest.raises(ConfigError, match=fragment):
            simulate(config, seed=1, horizon_seconds=horizon)

    def test_zero_horizon(self):
        trace, report = simulate(CALIBRATED, seed=1, horizon_seconds=0)
        assert len(trace.events) == 0
        assert report.scans_completed == 0

    @pytest.mark.parametrize("scanners", [1, 3])
    def test_zero_horizon_report_covers_every_scanner(self, scanners):
        config = dataclasses.replace(CALIBRATED, scanners_per_robot=scanners)
        trace, report = simulate(config, seed=1, horizon_seconds=0)
        assert trace == SimTrace(array("q"), array("H"), array("q"), sim.vocabulary(scanners), 0)
        assert report.per_scanner_scans == (0,) * scanners
        assert report.scans_per_hour == 0
        assert report.horizon_hours == 0
        assert report.robot_utilization == report.scanner_utilization == 0
        assert report.stall_seconds == report.starved_seconds == 0

    def test_unlimited_hopper_never_empties(self):
        config = dataclasses.replace(CALIBRATED, attendance=NEVER_PRESENT)
        trace, report = simulate(config, seed=1, horizon_seconds=24 * 3600)
        assert report.scans_completed > 2 * 300
        assert transitions(trace, "hopper_empty_lamp_on") == []
        assert report.starved_seconds == 0

    def test_short_horizon_no_scan(self):
        trace, report = simulate(CALIBRATED, seed=1, horizon_seconds=30)
        assert report.scans_completed == 0
        assert len(trace.events) > 0

    def test_hopper_limited_run(self):
        config = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=300,
            attendance=NEVER_PRESENT,
        )
        trace, report = simulate(config, seed=1, horizon_seconds=24 * 3600)
        assert report.scans_completed == 600
        assert report.per_scanner_scans == (300, 300)
        lamps = transitions(trace, "hopper_empty_lamp_on")
        assert len(lamps) == 2
        assert report.starved_seconds > 0

    def test_report_rates_consistent_with_horizon(self):
        _, report = simulate(CALIBRATED, seed=3, horizon_seconds=7200)
        assert report.scans_per_hour * report.horizon_hours == pytest.approx(
            report.scans_completed
        )
        assert report.scans_completed == sum(report.per_scanner_scans)


class TestMillisecondRange:
    """A finite duration whose milliseconds pass the float range is refused
    with a ConfigError at the boundary, or a DomainError for a draw, and
    never escapes as OverflowError."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: simulate(CellConfig(), 1, 3.6e305),
            lambda: simulate(CellConfig(scan_seconds=1e306), 1, 3600),
            lambda: simulate(CellConfig(handling_time=HandlingTime("fixed", 1e308)), 1, 3600),
            lambda: simulate(
                CellConfig(handling_time=HandlingTime("uniform", 1e308, 0.5)), 1, 3600
            ),
            lambda: simulate(
                CellConfig(hopper_capacity=1, reload_seconds=1e306, attendance=ALWAYS_PRESENT),
                1,
                3600,
            ),
        ],
        ids=["horizon", "scan", "fixed-handling", "uniform-handling", "reload"],
    )
    def test_finite_input_beyond_the_range_is_a_config_error(self, run):
        with pytest.raises(ConfigError, match="has no finite value in ms"):
            run()

    @pytest.mark.parametrize(
        "mean, sigma, seed",
        [
            (1e305, 0.5, 2),  # the first draw is finite, but not in ms
            (1.7e305, 3.7, 7732),  # the first draw overflows `math.exp` in the sampler
        ],
    )
    def test_lognormal_draw_beyond_the_range_is_a_domain_error(self, mean, sigma, seed):
        config = CellConfig(handling_time=HandlingTime("lognormal", mean, sigma))
        with pytest.raises(DomainError, match="a lognormal draw takes the handling time out"):
            simulate(config, seed, 3600)


# the shortest cycle the boundary accepts: 42,000 events per simulated second
MILLISECOND_CYCLE = CellConfig(
    scan_seconds=1e-3, handling_time=HandlingTime("fixed", 1e-3), hopper_capacity=None
)


class TestEventBudget:
    def test_budget_admits_a_run_of_exactly_that_many_events(self, monkeypatch):
        trace, report = simulate(MILLISECOND_CYCLE, seed=1, horizon_seconds=0.5)
        monkeypatch.setattr(sim, "MAX_EVENTS", len(trace.events))
        assert simulate(MILLISECOND_CYCLE, seed=1, horizon_seconds=0.5) == (trace, report)
        monkeypatch.setattr(sim, "MAX_EVENTS", len(trace.events) - 1)
        with pytest.raises(DomainError, match=f"exceeds {len(trace.events) - 1:,} events"):
            simulate(MILLISECOND_CYCLE, seed=1, horizon_seconds=0.5)

    def test_budget_stops_a_retry_loop_within_one_pick(self, monkeypatch):
        # every pick fails and retries a billion times before the cell stalls
        config = dataclasses.replace(CALIBRATED, lift_failure_prob=1.0, lift_retry_limit=10**9)
        monkeypatch.setattr(sim, "MAX_EVENTS", 10_000)
        with pytest.raises(DomainError, match="10,000 events"):
            simulate(config, seed=1, horizon_seconds=3600)


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        config = CellConfig(
            handling_time=HandlingTime("lognormal", 66.7, 0.15),
            hopper_capacity=40,
            lift_failure_prob=0.02,
            attendance=ALWAYS_PRESENT,
        )
        trace_a, _ = simulate(config, seed=99, horizon_seconds=4 * 3600)
        trace_b, _ = simulate(config, seed=99, horizon_seconds=4 * 3600)
        assert trace_a.to_csv() == trace_b.to_csv()

    def test_different_seed_differs(self):
        config = CellConfig(
            handling_time=HandlingTime("lognormal", 66.7, 0.15),
            hopper_capacity=None,
            attendance=ALWAYS_PRESENT,
        )
        trace_a, _ = simulate(config, seed=1, horizon_seconds=3600)
        trace_b, _ = simulate(config, seed=2, horizon_seconds=3600)
        assert trace_a.to_csv() != trace_b.to_csv()


class TestMonotonicity:
    def test_scans_non_decreasing_in_horizon(self):
        counts = [
            simulate(CALIBRATED, seed=5, horizon_seconds=h)[1].scans_completed
            for h in (0, 1800, 3600, 7200, 14_400)
        ]
        assert counts == sorted(counts)

    def test_scans_non_increasing_in_handling_mean(self):
        counts = []
        for mean in (50.0, 66.7, 90.0, 120.0):
            config = CellConfig(
                handling_time=HandlingTime("fixed", mean),
                hopper_capacity=None,
                attendance=ALWAYS_PRESENT,
            )
            counts.append(simulate(config, seed=5, horizon_seconds=7200)[1].scans_completed)
        assert counts == sorted(counts, reverse=True)

    def test_robot_bound_regime(self):
        # when mean handling exceeds the scan time the robot is the
        # bottleneck and the pair converges to 3600/mean scans per hour
        for mean, spread in ((55.0, 0.1), (66.7, 0.0), (90.0, 0.15)):
            config = CellConfig(
                handling_time=HandlingTime("uniform" if spread else "fixed", mean, spread),
                hopper_capacity=None,
                attendance=ALWAYS_PRESENT,
            )
            _, report = simulate(config, seed=11, horizon_seconds=100 * 3600)
            assert report.scans_per_hour == pytest.approx(3600.0 / mean, rel=0.02)


class TestHandlingSampler:
    # each case's draws against the expression its kind evaluates, on a
    # twin generator; a mean of 0.4 ms puts most lognormal draws under the
    # 1 ms floor
    @pytest.mark.parametrize(
        "kind, mean, spread",
        [
            ("fixed", 66.7, 0.0),
            ("uniform", 66.7, 0.0),
            ("uniform", 66.7, 0.5),
            ("uniform", 66.7, 0.99),
            ("lognormal", 66.7, 0.0),
            ("lognormal", 66.7, 0.15),
            ("lognormal", 66.7, 0.8),
            ("lognormal", 0.0004, 0.8),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_draws_match_the_kind_expression_bit_for_bit(self, kind, mean, spread, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        draw = HandlingTime(kind, mean, spread).sampler(rng)
        drawn = [draw() for _ in range(1000)]
        if kind == "fixed":
            expected = [mean] * 1000
        elif kind == "uniform":
            half = mean * spread
            expected = [twin.uniform(mean - half, mean + half) for _ in range(1000)]
        else:
            mu = math.log(mean) - spread * spread / 2.0
            expected = [max(1e-3, twin.lognormvariate(mu, spread)) for _ in range(1000)]
        assert [x.hex() for x in drawn] == [x.hex() for x in expected]
        assert rng.getstate() == twin.getstate()  # the same number of draws
        if mean < 1e-3:
            assert 0 < drawn.count(1e-3) < 1000


class TestHandlingPhases:
    @staticmethod
    def phase_durations(config):
        """(unload, plate, load) robot times of each full loading cycle of a
        one-scanner cell; a cycle's load follows its unload and plate."""
        trace, _ = simulate(config, seed=4, horizon_seconds=2 * 3600)

        def durations(start, end):
            pairs = zip(transitions(trace, start), transitions(trace, end))
            return [b[0] - a[0] for a, b in pairs]

        unload = durations("print_lifted_from_bed", "print_unloaded")
        plate = durations("sense_plate", "plate_transferred")
        load = durations("sense_print", "print_on_bed")[1:]
        return list(zip(unload, plate, load))

    def test_fixed_handling_splits_three_three_four(self):
        config = CellConfig(
            scanners_per_robot=1, handling_time=HandlingTime("fixed", 60.0), hopper_capacity=None
        )
        cycles = self.phase_durations(config)
        assert cycles and set(cycles) == {(18_000, 18_000, 24_000)}

    def test_uniform_handling_draws_each_phase_separately(self):
        config = CellConfig(
            scanners_per_robot=1,
            handling_time=HandlingTime("uniform", 60.0, 0.2),
            hopper_capacity=None,
        )
        cycles = self.phase_durations(config)
        assert len(cycles) > 20
        # one h split 0.3/0.3/0.4 would give unload = plate = 0.75 * load
        # in every cycle, up to 1 ms of rounding
        assert any(abs(unload - plate) > 1 for unload, plate, _ in cycles)
        assert any(abs(unload - 0.75 * load) > 1 for unload, _, load in cycles)


class TestFailuresAndStalls:
    def test_lift_failures_stall_cell_until_attendance(self):
        config = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=None,
            lift_failure_prob=0.2,
            lift_retry_limit=2,
            attendance=WeeklySchedule(((0, 0.0, 24.0),)),
        )
        trace, report = simulate(config, seed=7, horizon_seconds=12 * 3600)
        stalls = transitions(trace, "error_stall")
        resolved = transitions(trace, "stall_resolved")
        assert stalls, "expected at least one stall at 20% failure"
        assert len(resolved) == len(stalls)
        assert report.stall_seconds > 0

    def test_unattended_stall_freezes_cell(self):
        config = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=None,
            lift_failure_prob=1.0,
            attendance=NEVER_PRESENT,
        )
        trace, report = simulate(config, seed=7, horizon_seconds=3600)
        assert report.scans_completed == 0
        assert transitions(trace, "error_stall")
        assert not transitions(trace, "stall_resolved")
        assert report.stall_seconds == pytest.approx(3600, abs=1)

    # a run, the transition whose first time T in that run opens or closes a
    # stall or starvation interval, and (horizon - T ms, stall ms, starved
    # ms) rerun at each horizon: the interval closes or opens exactly at
    # the horizon (0) or is still open there
    @pytest.mark.parametrize(
        "run, transition, expected",
        [
            ("lift_failures_with_stalls", "stall_resolved", ((0, 1_000, 0), (-1, 999, 0))),
            (
                "reloads_under_part_time_attendance",
                "hopper_reloaded",
                ((0, 0, 63_663_288), (-1, 0, 63_663_286)),
            ),
            ("unattended_seed_1", "error_stall", ((0, 0, 0), (1, 1, 0))),
            ("unattended_seed_5", "sense_empty", ((0, 0, 0), (1, 0, 1), (45_001, 0, 45_002))),
        ],
    )
    def test_intervals_at_the_horizon(self, run, transition, expected):
        unattended = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=3,
            lift_failure_prob=0.2,
            lift_retry_limit=2,
            attendance=NEVER_PRESENT,
        )
        runs = {
            "unattended_seed_1": (unattended, 1, 3600),
            "unattended_seed_5": (unattended, 5, 3600),
        }
        config, seed, horizon = runs[run] if run in runs else GOLDEN_RUNS[run][:3]
        trace, _ = simulate(config, seed=seed, horizon_seconds=horizon)
        t_ms = transitions(trace, transition)[0][0]
        for offset_ms, stall_ms, starved_ms in expected:
            _, report = simulate(config, seed=seed, horizon_seconds=(t_ms + offset_ms) / 1000)
            assert report.stall_seconds == stall_ms / 1000
            assert report.starved_seconds == starved_ms / 1000

    def test_retry_attempts_emitted(self):
        config = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=None,
            lift_failure_prob=0.3,
            attendance=ALWAYS_PRESENT,
        )
        trace, _ = simulate(config, seed=13, horizon_seconds=2 * 3600)
        failed = transitions(trace, "print_lift_failed")
        ok = transitions(trace, "print_lift_ok")
        assert failed and ok

    def test_reload_resumes_production(self):
        config = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=5,
            reload_seconds=30.0,
            attendance=ALWAYS_PRESENT,
        )
        trace, report = simulate(config, seed=3, horizon_seconds=4 * 3600)
        reloads = transitions(trace, "hopper_reloaded")
        assert reloads
        assert report.scans_completed > 10  # more than one hopper's worth


HOUR_MS = 3600 * 1000
DAY_MS = 24 * HOUR_MS


def caused_pairs(trace, transition, cause_transition):
    """(cause time_ms, time_ms) of each `transition` event, paired with the
    `cause_transition` event that its cause id names."""
    pairs = []
    for time_ms, _, _, cause in transitions(trace, transition):
        cause_time_ms, _, name, _ = event(trace, cause)
        assert name == cause_transition
        pairs.append((cause_time_ms, time_ms))
    return pairs


def next_weekday_nine_to_five_ms(time_ms):
    """The first moment at or after `time_ms` of the default attendance,
    09:00 to 17:00 Monday to Friday, with time 0 at Monday 00:00."""
    day, in_day_ms = divmod(time_ms, DAY_MS)
    if day % 7 < 5 and 9 * HOUR_MS <= in_day_ms < 17 * HOUR_MS:
        return time_ms
    day += in_day_ms >= 9 * HOUR_MS
    while day % 7 >= 5:
        day += 1
    return day * DAY_MS + 9 * HOUR_MS


class TestWorkerRule:
    """A reload completes `reload_seconds` after a worker is next present;
    a stall resolves once a worker is present, but no sooner than 1 s after
    it began."""

    def test_always_present_reload_takes_reload_seconds(self):
        config = CellConfig(hopper_capacity=3, reload_seconds=12.3456, attendance=ALWAYS_PRESENT)
        trace, _ = simulate(config, seed=1, horizon_seconds=4 * 3600)
        pairs = caused_pairs(trace, "hopper_reloaded", "hopper_empty_lamp_on")
        assert len(pairs) > 10
        assert all(reloaded - lamp == 12_346 for lamp, reloaded in pairs)

    def test_always_present_stall_resolves_after_one_second(self):
        config = CellConfig(
            hopper_capacity=None,
            lift_failure_prob=0.2,
            lift_retry_limit=1,
            attendance=ALWAYS_PRESENT,
        )
        trace, _ = simulate(config, seed=1, horizon_seconds=4 * 3600)
        pairs = caused_pairs(trace, "stall_resolved", "error_stall")
        assert len(pairs) > 10
        assert all(resolved - stall == 1_000 for stall, resolved in pairs)

    def test_weekday_attendance_waits_for_the_next_worker(self):
        config = CellConfig(hopper_capacity=30, lift_failure_prob=0.05, lift_retry_limit=1)
        assert config.attendance == WeeklySchedule()
        trace, _ = simulate(config, seed=1, horizon_seconds=168 * 3600)
        stalls = caused_pairs(trace, "stall_resolved", "error_stall")
        reloads = caused_pairs(trace, "hopper_reloaded", "hopper_empty_lamp_on")
        for stall, resolved in stalls:
            assert resolved == max(next_weekday_nine_to_five_ms(stall), stall + 1_000)
        for lamp, reloaded in reloads:
            assert reloaded == next_weekday_nine_to_five_ms(lamp) + 60_000
        # both rules are exercised out of hours, where the worker is waited for
        for pairs in (stalls, reloads):
            assert any(next_weekday_nine_to_five_ms(t) > t for t, _ in pairs)
            assert any(next_weekday_nine_to_five_ms(t) == t for t, _ in pairs)


class TestTraceStructure:
    def test_invariants_on_calibrated_run(self):
        config = CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=50,
            attendance=ALWAYS_PRESENT,
            reload_seconds=45.0,
        )
        trace, _ = simulate(config, seed=21, horizon_seconds=6 * 3600)
        assert check_trace_invariants(trace, config) == []

    def test_invariants_on_randomized_configs(self):
        rng = random.Random(20_26)
        for case in range(120):
            config = CellConfig(
                scanners_per_robot=rng.choice((1, 2, 2, 3)),
                scan_seconds=rng.uniform(20, 60),
                handling_time=HandlingTime(
                    rng.choice(("fixed", "uniform", "lognormal")),
                    rng.uniform(40, 90),
                    rng.choice((0.0, 0.1, 0.2)),
                ),
                hopper_capacity=rng.choice((3, 8, 20)),
                lift_retry_limit=rng.choice((1, 2, 3)),
                lift_failure_prob=rng.choice((0.0, 0.05, 0.3)),
                attendance=rng.choice((ALWAYS_PRESENT, WeeklySchedule(((0, 0.0, 12.0),)))),
                reload_seconds=rng.uniform(0, 120),
            )
            trace, report = simulate(config, seed=case, horizon_seconds=rng.uniform(600, 2400))
            assert check_trace_invariants(trace, config) == [], f"case {case}"
            assert report.starved_seconds >= 0, f"case {case}"

    def test_csv_shape(self):
        trace, _ = simulate(CALIBRATED, seed=1, horizon_seconds=600)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "time_ms,entity,transition,cause_event_id"
        first = lines[1].split(",")
        assert first == ["0", "cell", "program_initiated", ""]
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    @pytest.mark.parametrize("horizon_seconds", [0, 600])
    def test_csv_blocks_frame_each_block(self, monkeypatch, horizon_seconds):
        whole = simulate(CALIBRATED, seed=1, horizon_seconds=horizon_seconds)[0].to_csv()
        monkeypatch.setattr(sim, "CSV_BLOCK_EVENTS", 7)
        trace, _ = simulate(CALIBRATED, seed=1, horizon_seconds=horizon_seconds)
        pieces = list(trace.csv_blocks())
        assert pieces[0] == SimTrace.CSV_HEADER and pieces[-1] == "\n"
        assert set(pieces[1:-1:2]) <= {"\n"}
        sizes = [block.count("\n") + 1 for block in pieces[2:-1:2]]
        assert sum(sizes) == len(trace.times) and set(sizes[:-1]) <= {7}
        assert "".join(pieces) == trace.to_csv() == whole

    def test_absolute_reference_chain(self):
        trace, _ = simulate(CALIBRATED, seed=1, horizon_seconds=600)
        scan_started = transitions(trace, "scan_started")
        assert scan_started
        for _, _, _, cause_id in scan_started:
            assert event(trace, cause_id)[2] == "lid_closed"
        for _, _, _, cause_id in transitions(trace, "lid_opened"):
            assert event(trace, cause_id)[2] == "scan_done"

    @pytest.mark.parametrize("horizon_seconds", [0, 24 * 3600])
    def test_events_are_the_id_range(self, horizon_seconds):
        # an event's id is its position in the columns
        trace, _ = simulate(CALIBRATED, seed=1, horizon_seconds=horizon_seconds)
        assert trace.events == range(len(trace.times))

    def test_held_trace_costs_under_24_bytes_per_event(self):
        # the three columns take 18 B an event, plus the arrays' spare room
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace, _ = simulate(CALIBRATED, seed=1, horizon_seconds=24 * 3600)
            gc.collect()  # the finished engine's own reference cycles
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.events) > 20_000
        assert held / len(trace.events) < 24

    def test_kind_codes_fit_the_kind_column(self):
        assert len(sim.vocabulary(MAX_SCANNERS_PER_ROBOT)) <= 1 << 16

    @pytest.mark.parametrize("scanners", [1, 2, MAX_SCANNERS_PER_ROBOT])
    def test_kind_offsets_name_their_vocabulary_pairs(self, scanners):
        # written out apart from SCANNER_TRANSITIONS, so reordering it
        # without its offsets fails here
        transitions = {
            sim.SENSE_PRINT: "sense_print",
            sim.SENSE_PLATE: "sense_plate",
            sim.SENSE_EMPTY: "sense_empty",
            sim.LAMP_ON: "hopper_empty_lamp_on",
            sim.LIFTED_FROM_BED: "print_lifted_from_bed",
            sim.PRINT_UNLOADED: "print_unloaded",
            sim.PLATE_TRANSFERRED: "plate_transferred",
            sim.SCAN_DONE: "scan_done",
            sim.LID_OPENED: "lid_opened",
            sim.RELOADED: "hopper_reloaded",
        }
        for pick, attempt in ((sim.PRINT_LIFT, "print_lift"), (sim.PLATE_LIFT, "plate_lift")):
            for step, outcome in enumerate(("attempt", "failed", "ok")):
                transitions[pick + step] = f"{attempt}_{outcome}"
        load_chain = ("print_on_bed", "robot_clear", "lid_closed", "scan_started")
        assert len(sim.LOAD_CHAIN) == len(load_chain)
        transitions.update(zip(sim.LOAD_CHAIN, load_chain))
        assert len(transitions) == len(sim.SCANNER_TRANSITIONS)
        assert sim.UNLOAD_CHAIN == (sim.PRINT_UNLOADED,)
        assert sim.PLATE_CHAIN == (sim.PLATE_TRANSFERRED,)

        pairs = sim.vocabulary(scanners)
        assert len(pairs) == len(sim.CELL_TRANSITIONS) + scanners * sim.SCANNER_KINDS
        engine = sim._Simulation(CellConfig(scanners_per_robot=scanners), 1, 0)
        for i in sorted({0, 1, scanners - 1} & set(range(scanners))):
            base = engine.scanners[i].base
            assert pairs[base + sim.ARRIVE] == ("robot", f"arrive@scanner{i}")
            assert pairs[base + sim.DEPART] == ("robot", f"depart@scanner{i}")
            for offset, transition in transitions.items():
                assert pairs[base + offset] == (f"scanner{i}", transition)

    def test_largest_engine_holds_no_per_scanner_kind_tables(self):
        # with one base code a scanner this engine holds about 0.20 MB; a
        # table of kind codes in each scanner takes it past 1.5 MB
        config = CellConfig(scanners_per_robot=MAX_SCANNERS_PER_ROBOT)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine = sim._Simulation(config, 1, 1000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(engine.scanners) == MAX_SCANNERS_PER_ROBOT
        assert held < 0.5e6

    def test_largest_cell_visits_every_scanner_in_turn(self):
        # 40 ms loads: the robot loads all 1,000 scanners in 40 s, before
        # the first 45 s scan ends
        config = CellConfig(
            scanners_per_robot=MAX_SCANNERS_PER_ROBOT,
            handling_time=HandlingTime("fixed", 0.1),
            hopper_capacity=None,
            attendance=ALWAYS_PRESENT,
        )
        trace, report = simulate(config, seed=1, horizon_seconds=60)
        assert check_trace_invariants(trace, config) == []
        names = [event(trace, i)[2] for i in trace.events]
        arrivals = [name for name in names if name.startswith("arrive@")]
        assert arrivals[:MAX_SCANNERS_PER_ROBOT] == [
            f"arrive@scanner{i}" for i in range(MAX_SCANNERS_PER_ROBOT)
        ]
        assert report.scans_completed > 0


# a 3 h run with reloads, and the same cell with unlimited hoppers
REPLAY_CONFIG = CellConfig(
    handling_time=HandlingTime("fixed", 66.7),
    hopper_capacity=5,
    reload_seconds=30.0,
    attendance=ALWAYS_PRESENT,
)
REPLAY_CONFIGS = {
    "limited": REPLAY_CONFIG,
    "unlimited": dataclasses.replace(REPLAY_CONFIG, hopper_capacity=None),
}
DROPPED_TRANSITIONS = (
    "print_lift_ok",
    "print_on_bed",
    "print_lifted_from_bed",
    "print_unloaded",
    "plate_lift_ok",
    "plate_transferred",
    "hopper_reloaded",
    "lid_closed",
    "scan_done",
)


def renamed(transition, entity=None):
    """A change that gives the event `transition` and `entity` (by default
    its own), adding the pair to the vocabulary when it is new."""

    def change(columns, position):
        pairs = columns["vocabulary"]
        pair = (entity or pairs[columns["kinds"][position]][0], transition)
        if pair not in pairs:
            pairs.append(pair)
        columns["kinds"][position] = pairs.index(pair)

    return change


def set_column(name, value):
    def change(columns, position):
        columns[name][position] = value(position)

    return change


# name -> (hoppers, transition of the first event to change, the function
# that changes that event in the trace's columns); renaming an event to
# robot_clear, which moves nothing, drops its effect
TRACE_DEFECTS = {
    **{f"drop_{name}": ("limited", name, renamed("robot_clear")) for name in DROPPED_TRANSITIONS},
    "drop_print_on_bed_unlimited": ("unlimited", "print_on_bed", renamed("robot_clear")),
    "depart_wrong_scanner": ("limited", "depart@scanner0", renamed("depart@scanner1")),
    "unknown_robot_transition": ("limited", "arrive@scanner0", renamed("wave@scanner0")),
    "time_moved_backwards": ("limited", "scan_done", set_column("times", lambda position: 0)),
    "cause_points_forward": (
        "limited", "print_on_bed", set_column("causes", lambda position: position + 1)
    ),
    "cause_missing": ("limited", "print_on_bed", set_column("causes", lambda position: sim.NO_CAUSE)),
    "unknown_entity": ("limited", "print_on_bed", renamed("print_on_bed", entity="scanner7")),
    "visit_overlaps": ("limited", "depart@scanner0", renamed("arrive@scanner0")),
    "reload_before_empty": ("limited", "print_on_bed", renamed("hopper_reloaded")),
}
# name -> the violations its broken trace reports, in order
DEFECT_REPORTS = {
    "cause_missing": ["event 5 (print_on_bed) lacks a cause"],
    "cause_points_forward": ["event 5 (print_on_bed) caused by event 6, not an earlier one"],
    "depart_wrong_scanner": ["robot left scanner1 while visiting scanner0 (event 9)"],
    "drop_hopper_reloaded": [
        f"event {i} ({name}) leaves {count} -1, arm 1"
        for i, name, count in (
            (200, "print_lift_ok", "prints"),
            (230, "plate_lift_ok", "plates"),
            (236, "print_lift_ok", "prints"),
            (272, "plate_lift_ok", "plates"),
            (278, "print_lift_ok", "prints"),
            (314, "plate_lift_ok", "plates"),
            (320, "print_lift_ok", "prints"),
            (356, "plate_lift_ok", "plates"),
            (362, "print_lift_ok", "prints"),
        )
    ],
    "drop_lid_closed": ["event 8 (scan_started) on scanner0 with the lid open"],
    "drop_plate_lift_ok": [
        "event 31 (plate_transferred) leaves arm -1, output 2",
        "scanner0 reloaded before its hopper was empty (event 171)",
    ],
    "drop_plate_transferred": ["event 34 (print_lifted_from_bed) leaves bed 0, arm 2"],
    "drop_print_lift_ok": [
        "event 5 (print_on_bed) leaves arm -1, bed 1",
        "scanner0 reloaded before its hopper was empty (event 171)",
    ],
    "drop_print_lifted_from_bed": [
        "event 23 (print_unloaded) leaves arm -1, output 1",
        "event 41 (print_on_bed) leaves arm 0, bed 2",
    ],
    "drop_print_on_bed": [
        "event 13 (print_lift_ok) leaves prints 4, arm 2",
        "event 22 (print_lifted_from_bed) leaves bed -1, arm 1",
    ],
    "drop_print_on_bed_unlimited": [
        "event 13 (print_lift_ok) leaves prints inf, arm 2",
        "event 22 (print_lifted_from_bed) leaves bed -1, arm 1",
    ],
    "drop_print_unloaded": ["event 28 (plate_lift_ok) leaves plates 3, arm 2"],
    "drop_scan_done": ["event 20 (lid_opened) on scanner0 with the lid scanning"],
    "reload_before_empty": [
        "scanner0 reloaded before its hopper was empty (event 5)",
        "event 13 (print_lift_ok) leaves prints 4, arm 2",
        "event 22 (print_lifted_from_bed) leaves bed -1, arm 1",
        "scanner0 reloaded before its hopper was empty (event 171)",
    ],
    "time_moved_backwards": ["event 19 (scan_done) time went backwards"],
    "unknown_entity": [
        "event 5 names unknown entity 'scanner7'",
        "event 13 (print_lift_ok) leaves prints 4, arm 2",
        "event 22 (print_lifted_from_bed) leaves bed -1, arm 1",
    ],
    "unknown_robot_transition": [
        "unknown robot transition 'wave@scanner0' (event 1)",
        "robot left scanner0 while visiting None (event 9)",
    ],
    "visit_overlaps": [
        "robot visit to scanner0 overlaps another (event 9)",
        "robot visit to scanner1 overlaps another (event 10)",
    ],
}


@pytest.fixture(scope="module")
def replay_traces():
    return {
        hoppers: simulate(config, seed=3, horizon_seconds=3 * 3600)[0]
        for hoppers, config in REPLAY_CONFIGS.items()
    }


class TestInvariantReplay:
    @pytest.mark.parametrize("hoppers", sorted(REPLAY_CONFIGS))
    def test_clean_trace_passes(self, replay_traces, hoppers):
        assert check_trace_invariants(replay_traces[hoppers], REPLAY_CONFIGS[hoppers]) == []

    @pytest.mark.parametrize("defect", sorted(TRACE_DEFECTS))
    def test_single_event_defect_reported(self, replay_traces, defect):
        hoppers, transition, change = TRACE_DEFECTS[defect]
        trace = replay_traces[hoppers]
        columns = {
            "times": array("q", trace.times),
            "kinds": array("H", trace.kinds),
            "causes": array("q", trace.causes),
            "vocabulary": list(trace.vocabulary),
        }
        position = next(i for i in trace.events if event(trace, i)[2] == transition)
        change(columns, position)
        columns["vocabulary"] = tuple(columns["vocabulary"])
        broken = SimTrace(**columns, horizon_ms=trace.horizon_ms)
        assert check_trace_invariants(broken, REPLAY_CONFIGS[hoppers]) == DEFECT_REPORTS[defect]


# (config, seed, horizon seconds) -> sha256 of the trace CSV and of the
# sorted report JSON. Any change to these bytes is a change in engine
# behaviour, not a refactor.
GOLDEN_RUNS = {
    "lift_failures_with_stalls": (
        CellConfig(
            handling_time=HandlingTime("fixed", 66.7),
            hopper_capacity=None,
            lift_failure_prob=0.2,
            lift_retry_limit=2,
            attendance=WeeklySchedule(((0, 0.0, 24.0),)),
        ),
        7,
        12 * 3600,
        "35a01fd5fba2f8fa0bdb95036e637a0ceb464860f85be3b69ac383a41d310ad4",
        "c8d1c91f4a1fcf9ce52ab2af8bb2d60e841895930f5d6aa13cfbf072a9d5348c",
    ),
    "reloads_under_part_time_attendance": (
        CellConfig(
            handling_time=HandlingTime("uniform", 60.0, 0.2),
            hopper_capacity=5,
            reload_seconds=30.0,
            attendance=WeeklySchedule(((0, 9.0, 12.0), (0, 14.0, 17.0))),
        ),
        3,
        20 * 3600,
        "a3dcdde9276e7f7c7f0f4b6ff91fe12c1d91dc18994264c135ccde1247912484",
        "d7d32a1a68162904c096d12d318ce4dcb5c4f8ce68273bd17189854cfa0e8152",
    ),
    "never_present_starvation": (
        CellConfig(hopper_capacity=4, lift_failure_prob=0.05, attendance=NEVER_PRESENT),
        11,
        2 * 3600,
        "2c40f0bdcc2f26841ee2b169512a815e013edaeb19fdbf9e5e48e47c5f3a4279",
        "83e96102f023bac0ddfa95e0dbb31851b67f8a856ac0ec5870eb54126b0c6972",
    ),
    "lognormal_with_ramp_into_second_week": (
        CellConfig(
            scan_seconds=5400.0,
            handling_time=HandlingTime("lognormal", 66.7, 0.15),
            hopper_capacity=6,
            ramp_multiplier=1.13,
        ),
        5,
        192 * 3600,
        "791cd1680d8d1bb3ae140f7e75bbd73d1d946db335553b6846f2da0f7d454f38",
        "69d83871b0f0c9c96685c248bfaa0a807af0876f32a868799cac393f9e88ac92",
    ),
    "three_scanners": (
        CellConfig(
            scanners_per_robot=3,
            scan_seconds=30.0,
            handling_time=HandlingTime("uniform", 50.0, 0.2),
            hopper_capacity=20,
            lift_failure_prob=0.05,
            attendance=ALWAYS_PRESENT,
        ),
        13,
        6 * 3600,
        "5ce04d7c453918bbbd33a8cbe80e7e9233d59b6381a8397b296fdb784944646a",
        "873a5d0048bcf2881a1d9bab86a8580b6f9b3f0c41ea1ec1cce078622201b37a",
    ),
}


def simulation_corner_cases(
    n_configs: int = 1000,
) -> Iterator[tuple[CellConfig, int, float]]:
    """Degenerate (config, seed, horizon seconds) cases, drawn from a fixed
    seed: 1-8 scanners, handling phases and reloads that round to 0 ms,
    1 ms scans, unlimited or 1-7-print hoppers, picks that always fail,
    every attendance kind and horizons past a week boundary. Many events
    share a millisecond, and the longer runs stop at the event budget."""
    rng = random.Random(42_000)

    def seconds(*ranges: tuple[float, float]) -> float:
        low, high = rng.choice(ranges)
        return rng.uniform(low, high)

    for _ in range(n_configs):
        kind = rng.choice(("fixed", "uniform", "lognormal"))
        config = CellConfig(
            scanners_per_robot=rng.randint(1, 8),
            scan_seconds=rng.choice((0.001, seconds((0.001, 1.0), (15, 300), (3600, 7200)))),
            handling_time=HandlingTime(
                kind,
                seconds((0.0004, 0.001), (0.001, 2.0), (30, 300), (1000, 6000)),
                rng.uniform(0, 0.9) if kind == "uniform" else rng.choice((0.0, 0.3, 1.5)),
            ),
            hopper_capacity=rng.choice((None, rng.randint(1, 7))),
            lift_retry_limit=rng.randint(1, 3),
            lift_failure_prob=rng.choice((0.0, 0.0, 0.0, 0.05, 0.5, 1.0)),
            attendance=rng.choice(
                (
                    ALWAYS_PRESENT,
                    NEVER_PRESENT,
                    WeeklySchedule(),
                    WeeklySchedule(((0, 0.0, 0.001), (6, 23.5, 24.0))),
                )
            ),
            reload_seconds=rng.choice((0.0, 0.0004, rng.uniform(0, 90))),
            ramp_multiplier=rng.choice((1.0, 1.0, 1.13, 0.5)),
        )
        seed = rng.randrange(2**31)
        horizon = seconds((0.001, 2.0), (60, 7200), (6.5 * 86400, 8 * 86400))
        yield config, seed, horizon


# sha256 over the trace CSV and sorted report JSON of every acceptance
# criterion-4 case in order; its 1,000 cells reach orderings the golden
# runs above do not, such as a reload that completes during a visit
PROPERTY_CASES_SHA256 = "3b866c430f8ee90bc1fbc5313b93cd8938f9cad9c38cf11623afe6cfee4ed6b1"
# sha256 over every `simulation_corner_cases` run in order, under an event
# budget of CORNER_CASES_MAX_EVENTS: the trace CSV and sorted report JSON of
# a run that finishes, the DomainError text of one that stops at the budget;
# it pins the same-millisecond orderings of 0 ms phases and reloads
CORNER_CASES_MAX_EVENTS = 5_000
CORNER_CASES_SHA256 = "8545dc6bb83f754cdfda069d11c04ac60237e5f6dd5ea4501145e1884f694e3b"


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_trace_and_report_bytes_pinned(self, name):
        config, seed, horizon, csv_sha256, report_sha256 = GOLDEN_RUNS[name]
        trace, report = simulate(config, seed=seed, horizon_seconds=horizon)
        report_json = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == csv_sha256
        assert hashlib.sha256(report_json.encode()).hexdigest() == report_sha256

    def test_property_cases_bytes_pinned(self):
        digest = hashlib.sha256()
        for config, seed, horizon in simulation_property_cases():
            trace, report = simulate(config, seed=seed, horizon_seconds=horizon)
            digest.update(trace.to_csv().encode())
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == PROPERTY_CASES_SHA256

    def test_corner_cases_bytes_pinned(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_EVENTS", CORNER_CASES_MAX_EVENTS)
        digest = hashlib.sha256()
        for config, seed, horizon in simulation_corner_cases():
            try:
                trace, report = simulate(config, seed=seed, horizon_seconds=horizon)
            except DomainError as error:
                digest.update(str(error).encode())
                continue
            assert check_trace_invariants(trace, config) == []
            digest.update(trace.to_csv().encode())
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == CORNER_CASES_SHA256

    def test_golden_runs_cover_their_scenarios(self):
        def times(name, transition):
            config, seed, horizon = GOLDEN_RUNS[name][:3]
            trace, _ = simulate(config, seed=seed, horizon_seconds=horizon)
            return [event[0] for event in transitions(trace, transition)]

        assert times("lift_failures_with_stalls", "stall_resolved")
        assert times("reloads_under_part_time_attendance", "hopper_reloaded")
        assert times("never_present_starvation", "sense_empty")
        week_ms = 7 * 24 * 3600 * 1000
        assert max(times("lognormal_with_ramp_into_second_week", "scan_done")) > week_ms


# every handling phase rounds to 0 ms, so each visit starts and ends in one
# millisecond; a scan takes 1 ms, and a hopper holds one print and is
# reloaded in the millisecond it empties
ZERO_MS_PHASES = CellConfig(
    scan_seconds=0.001,
    handling_time=HandlingTime("fixed", 0.001),
    hopper_capacity=1,
    reload_seconds=0.0,
    attendance=ALWAYS_PRESENT,
)


class TestSameMillisecondOrder:
    def test_first_events_of_zero_ms_phases(self):
        trace, _ = simulate(ZERO_MS_PHASES, seed=1, horizon_seconds=0.002)
        expected = [
            (0, "cell", "program_initiated"),
            (0, "robot", "arrive@scanner0"),
            (0, "scanner0", "sense_print"),
            (0, "scanner0", "print_lift_attempt"),
            (0, "scanner0", "print_lift_ok"),
            (0, "scanner0", "hopper_empty_lamp_on"),
            # the 0 ms visit closes before the reload due in its millisecond
            (0, "scanner0", "print_on_bed"),
            (0, "scanner0", "robot_clear"),
            (0, "scanner0", "lid_closed"),
            (0, "scanner0", "scan_started"),
            (0, "robot", "depart@scanner0"),
            # and the robot's next visit waits for that reload
            (0, "scanner0", "hopper_reloaded"),
            (0, "robot", "arrive@scanner1"),
            (0, "scanner1", "sense_print"),
            (0, "scanner1", "print_lift_attempt"),
            (0, "scanner1", "print_lift_ok"),
            (0, "scanner1", "hopper_empty_lamp_on"),
            (0, "scanner1", "print_on_bed"),
            (0, "scanner1", "robot_clear"),
            (0, "scanner1", "lid_closed"),
            (0, "scanner1", "scan_started"),
            (0, "robot", "depart@scanner1"),
            (0, "scanner1", "hopper_reloaded"),
            # the first scan to end wakes the robot, which waits for the second
            (1, "scanner0", "scan_done"),
            (1, "scanner0", "lid_opened"),
            (1, "scanner1", "scan_done"),
            (1, "scanner1", "lid_opened"),
            (1, "robot", "arrive@scanner0"),
            (1, "scanner0", "print_lifted_from_bed"),
            (1, "scanner0", "print_unloaded"),
            (1, "robot", "depart@scanner0"),
            # with nothing else due, each visit's end dispatches the next
            (1, "robot", "arrive@scanner1"),
            (1, "scanner1", "print_lifted_from_bed"),
            (1, "scanner1", "print_unloaded"),
            (1, "robot", "depart@scanner1"),
            (1, "robot", "arrive@scanner0"),
            (1, "scanner0", "sense_print"),
            (1, "scanner0", "print_lift_attempt"),
            (1, "scanner0", "print_lift_ok"),
            (1, "scanner0", "hopper_empty_lamp_on"),
        ]
        assert [event(trace, i)[:3] for i in range(len(expected))] == expected
