"""Cell-simulation workloads: one long saturated run, and a sweep of short runs.

Both call the same `cell.sim` layer from opposite ends. `cell-long`
stresses per-event engine cost, trace materialization and garbage
collection over ~760k live events; `cell-sweep` stresses per-run fixed
cost over ~1000 small traces, so a change that helps long runs but adds
per-run set-up shows as a regression there.
"""
from __future__ import annotations

import hashlib
import json
import random
import statistics
from types import SimpleNamespace

from scancell.cell import (
    ALWAYS_PRESENT,
    NEVER_PRESENT,
    CellConfig,
    HandlingTime,
    SimTrace,
    WeeklySchedule,
    simulate,
)
from scancell.cell.invariants import check_trace_invariants

from common import PassResult, Workload, sha256_hex

LONG_HOURS = 672
SWEEP_CONFIGS = 1000
RERUN_EVERY = 5
SATURATED_SCANS_PER_HOUR = 54.0
RATE_TOLERANCE = 0.02


def layers(tracer) -> SimpleNamespace:
    wrap = tracer.wrap
    return SimpleNamespace(
        simulate=wrap("cell.sim.simulate", simulate, work=lambda out, args: len(out[0].events)),
        to_csv=wrap("cell.sim.to_csv", SimTrace.to_csv, work=lambda out, args: len(out)),
        check=wrap(
            "cell.invariants.check",
            check_trace_invariants,
            work=lambda out, args: len(args[0].events),
        ),
        to_json=wrap("cell.config.codec", CellConfig.to_json_dict),
        from_json=wrap("cell.config.codec", CellConfig.from_json_dict),
    )


# -- cell-long -------------------------------------------------------------------


def build_long(seed: int, scale: float) -> SimpleNamespace:
    rng = random.Random(seed)
    config = CellConfig(
        scanners_per_robot=2,
        handling_time=HandlingTime("lognormal", 66.7, 0.15),
        hopper_capacity=None,
        lift_failure_prob=0.02,
        attendance=ALWAYS_PRESENT,
    )
    return SimpleNamespace(config=config, sim_seed=rng.randrange(2**31), hours=LONG_HOURS * scale)


def pass_long(layer, tracer, inputs) -> PassResult:
    result = PassResult(work={"sim_hours": inputs.hours})

    def long_run() -> bool:
        trace, report = layer.simulate(inputs.config, inputs.sim_seed, inputs.hours * 3600)
        violations = layer.check(trace, inputs.config)
        csv = layer.to_csv(trace)
        result.stats = {
            "scans_completed": report.scans_completed,
            "events": len(trace.events),
            "scans_per_hour": report.scans_per_hour,
            "robot_utilization": report.robot_utilization,
            "scanner_utilization": report.scanner_utilization,
            "stall_seconds": report.stall_seconds,
            "starved_seconds": report.starved_seconds,
            "csv_sha256": sha256_hex(csv),
        }
        rate_error = abs(report.scans_per_hour - SATURATED_SCANS_PER_HOUR)
        return not violations and rate_error <= RATE_TOLERANCE * SATURATED_SCANS_PER_HOUR

    result.run_op(tracer, "long-run", long_run)
    return result


def summarize_long(passes: list[PassResult], pass_s: float) -> dict:
    return {"sim_hours_per_s": (passes[0].work["sim_hours"] / pass_s, "h/s")}


CELL_LONG = Workload(
    build=build_long,
    layers=layers,
    run_pass=pass_long,
    summarize=summarize_long,
    reference="python",
)


# -- cell-sweep ------------------------------------------------------------------


def build_sweep(seed: int, scale: float) -> list[tuple[CellConfig, int, float]]:
    """Randomized configs from the distribution of acceptance criterion 4."""
    rng = random.Random(seed)
    cases = []
    for _ in range(max(1, round(SWEEP_CONFIGS * scale))):
        config = CellConfig(
            scanners_per_robot=rng.choice((1, 2, 2, 2, 3)),
            scan_seconds=rng.uniform(15, 60),
            handling_time=HandlingTime(
                rng.choice(("fixed", "uniform", "lognormal")),
                rng.uniform(30, 100),
                rng.choice((0.0, 0.05, 0.15, 0.3)),
            ),
            hopper_capacity=rng.choice((2, 5, 12, 30)),
            lift_retry_limit=rng.choice((1, 2, 3)),
            lift_failure_prob=rng.choice((0.0, 0.0, 0.02, 0.2)),
            attendance=rng.choice(
                (ALWAYS_PRESENT, WeeklySchedule(((0, 0.0, 10.0),)), NEVER_PRESENT)
            ),
            reload_seconds=rng.uniform(0, 90),
            ramp_multiplier=rng.choice((1.0, 1.0, 1.13)),
        )
        cases.append((config, rng.randrange(2**31), rng.uniform(300, 1800)))
    return cases


def pass_sweep(layer, tracer, cases) -> PassResult:
    result = PassResult(work={"configs": len(cases), "sim_hours": sum(c[2] for c in cases) / 3600})
    totals = {"scans_completed": 0, "events": 0}
    reports = hashlib.sha256()
    csvs = hashlib.sha256()
    for index, (config, seed, horizon) in enumerate(cases):

        def one_config() -> bool:
            # the JSON text is what `scancell simulate --config` would read
            received = layer.from_json(json.loads(json.dumps(layer.to_json(config))))
            trace, report = layer.simulate(received, seed, horizon)
            ok = received == config and not layer.check(trace, received)
            totals["scans_completed"] += report.scans_completed
            totals["events"] += len(trace.events)
            reports.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
            if index % RERUN_EVERY == 0:
                again, _ = layer.simulate(received, seed, horizon)
                csv = layer.to_csv(trace)
                ok = ok and layer.to_csv(again) == csv
                csvs.update(csv.encode())
            return ok

        result.run_op(tracer, "config", one_config)
    result.stats = {**totals, "reports_sha256": reports.hexdigest(), "rerun_csv_sha256": csvs.hexdigest()}
    return result


def summarize_sweep(passes: list[PassResult], pass_s: float) -> dict:
    p50 = statistics.median(statistics.median(w for _, w, _ in p.ops) for p in passes)
    p99 = statistics.median(_p99([w for _, w, _ in p.ops]) for p in passes)
    work = passes[0].work
    return {
        "sim_hours_per_s": (work["sim_hours"] / pass_s, "h/s"),
        "configs_per_s": (work["configs"] / pass_s, "1/s"),
        "run_ms_p50": (p50 * 1e3, "ms"),
        "run_ms_p99": (p99 * 1e3, "ms"),
    }


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[98]


CELL_SWEEP = Workload(
    build=build_sweep,
    layers=layers,
    run_pass=pass_sweep,
    summarize=summarize_sweep,
    reference="python",
)
