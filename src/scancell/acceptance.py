"""Acceptance suite: checks the toolkit against the published figures of
the digitization programme it models.

Each criterion is a function returning individual check results; the CLI
`paper-check` subcommand prints them as a pass/fail table and the test
suite asserts them. Tolerances are pinned here, not configurable.
"""
from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass
from typing import Callable, Iterator

from . import economics, photogrammetry, preservation, sortie
from .cell import (
    ALWAYS_PRESENT,
    NEVER_PRESENT,
    CellConfig,
    HandlingTime,
    WeeklySchedule,
    fleet_throughput,
    observed_vs_theoretical,
    productivity_ratio,
    simulate,
    theoretical_throughput,
    utilization_fraction,
)
from .cell.invariants import check_trace_invariants
from .preservation import MouldState, RipDamage
from .qc import (
    Distortions,
    TargetLayout,
    crop_to_border,
    default_geometry,
    measure_scale_px,
    render_print_scan,
    render_target,
    smallest_resolvable_um,
    wedge_level,
    wedge_tones,
)

GROUP_STEP = 2.0 ** (1.0 / 6.0)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    passed: bool
    detail: str


def _check(criterion: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(criterion, name, bool(passed), detail)


# -- criterion 1: throughput identities --------------------------------------


def check_throughput_identities() -> list[CheckResult]:
    c = "1 throughput identities"
    human = theoretical_throughput("human_operated")
    robot = theoretical_throughput("robotic")
    fleet = fleet_throughput(14)
    return [
        _check(c, "human scans/scanner-hour", human.scans_per_scanner_hour == 50, f"{human.scans_per_scanner_hour}"),
        _check(c, "human scans/hour", human.scans_per_hour == 100, f"{human.scans_per_hour}"),
        _check(c, "human scans/scanner-week", human.scans_per_scanner_week == 1750, f"{human.scans_per_scanner_week}"),
        _check(c, "human scans/worker-week", human.scans_per_worker_week == 3500, f"{human.scans_per_worker_week}"),
        _check(c, "robotic scans/scanner-hour", robot.scans_per_scanner_hour == 27, f"{robot.scans_per_scanner_hour}"),
        _check(c, "robotic scans/hour", robot.scans_per_hour == 54, f"{robot.scans_per_hour}"),
        _check(c, "robotic scans/scanner-week", robot.scans_per_scanner_week == 4536, f"{robot.scans_per_scanner_week}"),
        _check(c, "robotic scans/worker-week", robot.scans_per_worker_week == 127_008, f"{robot.scans_per_worker_week}"),
        _check(c, "fleet scans/day", fleet.scans_per_day == 9_072, f"{fleet.scans_per_day}"),
        _check(c, "fleet scans/week", fleet.scans_per_week == 63_504, f"{fleet.scans_per_week}"),
    ]


# -- criterion 2: productivity ratios -----------------------------------------


def check_productivity_ratios() -> list[CheckResult]:
    c = "2 productivity ratios"
    ratio = productivity_ratio(
        theoretical_throughput("robotic"), theoretical_throughput("human_operated")
    )
    return [
        _check(
            c,
            "per-scanner 2.6-fold",
            abs(ratio.per_scanner - 2.6) <= 0.05,
            f"4536/1750 = {ratio.per_scanner:.3f}",
        ),
        _check(
            c,
            "per-worker above 30-fold",
            ratio.per_worker > 30,
            f"127008/3500 = {ratio.per_worker:.3f}",
        ),
    ]


# -- criterion 3: simulation calibration ---------------------------------------


def check_simulation_calibration() -> list[CheckResult]:
    c = "3 simulation calibration"
    calibrated = CellConfig(
        handling_time=HandlingTime("fixed", 66.7),
        hopper_capacity=None,
        attendance=ALWAYS_PRESENT,
    )
    _, century = simulate(calibrated, seed=1, horizon_seconds=100 * 3600)
    hopper_limited = CellConfig(
        handling_time=HandlingTime("fixed", 66.7),
        hopper_capacity=300,
        attendance=NEVER_PRESENT,
    )
    _, limited = simulate(hopper_limited, seed=1, horizon_seconds=24 * 3600)
    return [
        _check(
            c,
            "100 h no-failure run at 54 scans/hour",
            abs(century.scans_per_hour - 54.0) <= 0.02 * 54.0,
            f"{century.scans_per_hour:.2f} scans/hour",
        ),
        _check(
            c,
            "two 300-print hoppers yield exactly 600",
            limited.scans_completed == 600,
            f"{limited.scans_completed} scans, per scanner {limited.per_scanner_scans}",
        ),
    ]


# -- criterion 4: simulation property suite ------------------------------------

PROPERTY_CONFIGS = 1000


def simulation_property_cases() -> Iterator[tuple[CellConfig, int, float]]:
    """The PROPERTY_CONFIGS randomized (config, seed, horizon seconds) cases
    of criterion 4, drawn from a fixed seed so every run checks the same cells."""
    rng = random.Random(41_000)
    for _ in range(PROPERTY_CONFIGS):
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
        seed = rng.randrange(2**31)
        horizon = rng.uniform(300, 1800)
        yield config, seed, horizon


def check_simulation_properties() -> list[CheckResult]:
    c = "4 simulation invariants"
    violations = 0
    determinism_breaks = 0
    first_failure = ""
    for case, (config, seed, horizon) in enumerate(simulation_property_cases()):
        trace, _ = simulate(config, seed=seed, horizon_seconds=horizon)
        problems = check_trace_invariants(trace, config)
        if problems:
            violations += 1
            first_failure = first_failure or f"case {case}: {problems[0]}"
        if case % 5 == 0:
            again, _ = simulate(config, seed=seed, horizon_seconds=horizon)
            if again.to_csv() != trace.to_csv():
                determinism_breaks += 1
                first_failure = first_failure or f"case {case}: non-deterministic"
    return [
        _check(
            c,
            f"invariants on {PROPERTY_CONFIGS} randomized configs",
            violations == 0,
            first_failure or "conservation, exclusion, causality, ordering all hold",
        ),
        _check(
            c,
            "seed determinism (byte-identical reruns)",
            determinism_breaks == 0,
            f"{determinism_breaks} mismatching reruns",
        ),
    ]


# -- criterion 5: observed vs theoretical ---------------------------------------


def check_observed_vs_theoretical() -> list[CheckResult]:
    c = "5 observed vs theoretical"
    fleet = fleet_throughput(14)
    report = observed_vs_theoretical(9_090, 36_084, fleet)
    return [
        _check(
            c,
            "weekly maximum near 57%",
            abs(report.weekly_fraction * 100 - 57) <= 1,
            f"36084/63504 = {report.weekly_fraction:.4f}",
        ),
        _check(
            c,
            "daily maximum flagged at/above ceiling",
            report.daily_at_or_above_theoretical
            and any("exceeds" in n for n in report.notes),
            f"9090/9072 = {report.daily_fraction:.4f}",
        ),
        _check(
            c,
            "Monday-aggregation note emitted",
            any("Monday" in n for n in report.notes),
            "; ".join(report.notes)[:60] + "...",
        ),
        _check(
            c,
            "robot rate is 54% of human ceiling",
            utilization_fraction(27, 50) == 0.54,
            f"27/50 = {utilization_fraction(27, 50)}",
        ),
    ]


# -- criterion 6: economics -----------------------------------------------------


def _bisect_smallest(predicate: Callable[[int], bool]) -> int:
    lo, hi = 1, 1
    while not predicate(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def check_economics() -> list[CheckResult]:
    c = "6 economics"
    a = economics.robotic_benchmark()
    b = economics.manual_benchmark()
    break_even = economics.break_even(a, b)
    halving = economics.cost_halving_point(a, b)
    weeks = economics.weeks_to_volume(break_even, 36_288)
    oracle_even = _bisect_smallest(
        lambda n: economics.total_cost(a, n) <= economics.total_cost(b, n)
    )
    oracle_half = _bisect_smallest(
        lambda n: economics.cost_per_scan(a, n) <= economics.cost_per_scan(b, n) / 2
    )
    return [
        _check(
            c,
            "break-even near 2.4 M scans",
            abs(break_even - 2_400_000) <= 0.02 * 2_400_000,
            f"{break_even:,} scans",
        ),
        _check(
            c,
            "cost halving near 5.0 M scans",
            abs(halving - 5_000_000) <= 0.02 * 5_000_000,
            f"{halving:,} scans",
        ),
        _check(
            c,
            "break-even volume takes about 65 weeks",
            abs(weeks.fractional_weeks - 65) <= 1,
            f"{weeks.fractional_weeks:.1f} weeks at 36,288/week",
        ),
        _check(
            c,
            "closed forms equal bisection oracle",
            break_even == oracle_even and halving == oracle_half,
            f"break-even {break_even:,} vs {oracle_even:,}; halving {halving:,} vs {oracle_half:,}",
        ),
    ]


# -- criterion 7: photogrammetry --------------------------------------------------


def check_photogrammetry() -> list[CheckResult]:
    c = "7 photogrammetry"
    median_scale = photogrammetry.ScaleRatio(42_579)
    grd_coarse = photogrammetry.ground_resolved_distance(
        photogrammetry.LinePairResolution(10), median_scale
    )
    grd_fine = photogrammetry.ground_resolved_distance(
        photogrammetry.LinePairResolution(27), median_scale
    )
    lo27, hi27 = photogrammetry.optimal_pixel_range(photogrammetry.LinePairResolution(27))
    lo10, hi10 = photogrammetry.optimal_pixel_range(photogrammetry.LinePairResolution(10))
    pitch = photogrammetry.pixel_pitch_from_ppi(1200)
    storage = photogrammetry.storage_estimate(1_700_000, 250_000_000)
    ranges_ok = (
        round(lo27.micrometers, 1) == 13.1
        and round(hi27.micrometers, 1) == 18.5
        and round(lo10.micrometers, 1) == 35.4
        and round(hi10.micrometers, 1) == 50.0
        and [math.floor(v.micrometers) for v in (lo27, hi27, lo10, hi10)] == [13, 18, 35, 50]
    )
    return [
        _check(
            c,
            "coarse print resolves 2.1 m at median scale",
            round(grd_coarse, 2) == 2.13 and round(grd_coarse, 1) == 2.1,
            f"{grd_coarse:.5f} m",
        ),
        _check(
            c,
            "fine print resolves 0.8 m at median scale",
            round(grd_fine, 2) == 0.79 and round(grd_fine, 1) == 0.8,
            f"{grd_fine:.5f} m",
        ),
        _check(
            c,
            "optimal pixel bands 13.1-18.5 and 35.4-50 um",
            ranges_ok,
            f"27 lp/mm: {lo27.micrometers:.2f}-{hi27.micrometers:.2f}; "
            f"10 lp/mm: {lo10.micrometers:.2f}-{hi10.micrometers:.2f}",
        ),
        _check(
            c,
            "1200 ppi pitch is 21.2 um",
            round(pitch.micrometers, 1) == 21.2,
            f"{pitch.micrometers:.4f} um",
        ),
        _check(
            c,
            "1.7 M images at 250 MB is exactly 425 TB",
            storage.terabytes() == 425.0,
            f"{storage.terabytes()} TB",
        ),
    ]


# -- criterion 8: identifier parser -----------------------------------------------


def check_parser() -> list[CheckResult]:
    c = "8 identifier parser"
    exemplars = {
        "4/BC/0056": sortie.DosContract(4, "BC", 56),
        "58/RAF/0456": sortie.MilitaryUnit("58", "RAF", 456),
        "HSL/GH/64/0034": sortie.CommercialSurvey("HSL", "GH", 64, 34),
    }
    exemplar_ok = all(
        sortie.parse(text) == expected
        and sortie.canonical_format(sortie.parse(text)) == text
        for text, expected in exemplars.items()
    )
    rng = random.Random(8_000)
    round_trips = 0
    for _ in range(1000):
        kind = rng.randrange(3)
        if kind == 0:
            sid = sortie.DosContract(
                rng.randint(1, 999),
                "".join(rng.choices(string.ascii_uppercase, k=2)),
                rng.randint(1, 99_999),
            )
        elif kind == 1:
            sid = sortie.MilitaryUnit(
                str(rng.randint(1, 999)),
                "".join(rng.choices(string.ascii_uppercase, k=rng.randint(3, 5))),
                rng.randint(1, 99_999),
            )
        else:
            sid = sortie.CommercialSurvey(
                "".join(rng.choices(string.ascii_uppercase, k=rng.randint(2, 4))),
                "".join(rng.choices(string.ascii_uppercase, k=2)),
                rng.randint(0, 99),
                rng.randint(1, 99_999),
            )
        round_trips += sortie.parse(sortie.canonical_format(sid)) == sid
    return [
        _check(c, "exemplar strings parse and round-trip byte-identically", exemplar_ok, f"{len(exemplars)} exemplars"),
        _check(c, "1000 generated ids round-trip", round_trips == 1000, f"{round_trips}/1000"),
    ]


# -- criterion 9: preservation ------------------------------------------------------


def check_preservation() -> list[CheckResult]:
    c = "9 preservation"
    order = [
        preservation.Step.CLEAN_MOULD,
        preservation.Step.SEPARATE_BLOCKED,
        preservation.Step.DRY_CLEAN_SILVER,
        preservation.Step.SOLVENT_CLEAN,
        preservation.Step.HUMIDIFY_AND_PRESS,
        preservation.Step.SLEEVE_PROTECT,
        preservation.Step.VACUUM_PACK,
    ]
    conditions = preservation.all_conditions()
    ordered = isolated = True
    planner_inputs = set()
    for condition in conditions:
        plan = preservation.plan_remediation(condition)
        indexes = [order.index(step) for step in plan.steps]
        ordered &= indexes == sorted(indexes) and len(set(indexes)) == len(indexes)
        if condition.mould is not MouldState.NONE:
            isolated &= plan.routing is preservation.Routing.MOULD_ISOLATED
        planner_inputs.add(
            (
                condition.mould is not MouldState.NONE,
                condition.blocking,
                condition.silver_dust,
                condition.annotations_or_adhesives,
                condition.curling_or_creases,
                condition.rips_or_peeling,
            )
        )
    rates = preservation.IssueRates()
    observed = preservation.aggregate_rates(preservation.sample_boxes(100_000, 42, rates))
    tol = 0.002
    merged_expected = preservation.implied_rips_or_peeling_rate(rates)
    monte_carlo_ok = (
        abs(observed.mould - rates.mould) <= tol
        and abs(observed.blocking - rates.blocking) <= tol
        and abs(observed.cleaning - rates.cleaning) <= tol
        and abs(observed.tape - rates.tape) <= tol
        and abs(observed.curling - rates.curling) <= tol
        and abs(observed.rips_or_peeling - merged_expected) <= tol
    )
    independent_any = preservation.independent_any_intervention_rate(rates)
    return [
        _check(
            c,
            "96 planner inputs produce flowchart-ordered plans",
            ordered and len(planner_inputs) == 96,
            f"{len(conditions)} conditions enumerated, {len(planner_inputs)} planner inputs",
        ),
        _check(c, "mould isolation holds exhaustively", isolated, "routing = mould_isolated whenever mould present"),
        _check(
            c,
            "Monte Carlo recovers configured rates within 0.2 pp",
            monte_carlo_ok,
            f"mould {observed.mould:.4f}, cleaning {observed.cleaning:.4f}, "
            f"curling {observed.curling:.4f}, damage {observed.rips_or_peeling:.4f} "
            f"(implied {merged_expected:.4f})",
        ),
        _check(
            c,
            "independence share reported beside observed 41%",
            abs(independent_any - 0.37) <= 0.005,
            f"independent {independent_any:.4f} vs observed {rates.any_intervention}; "
            "issues co-occur, the joint distribution is not independent",
        ),
    ]


# -- criterion 10: calibration QC ------------------------------------------------------


def check_calibration_qc() -> list[CheckResult]:
    c = "10 calibration QC"
    geom = default_geometry()
    raster = render_target(geom, 1200)
    layout = TargetLayout.compute(geom, 1200)
    scale = measure_scale_px(raster)
    tones = wedge_tones(raster, layout.wedge_first_centroid, layout.wedge_last_centroid)
    expected_tones = tuple(wedge_level(k) for k in range(21))
    smallest = smallest_resolvable_um(raster, geom)
    ratio = smallest / (2 * raster.pitch_um)
    distorted = measure_scale_px(render_target(geom, 1200, Distortions(scale_error_fraction=0.002)))
    scan = render_print_scan(1200, scan_area_mm=(250.0, 250.0))
    cropped = crop_to_border(scan)
    print_px = round(228.6 / 25.4 * 1200)
    expected_side = print_px + 2 * 236
    return [
        _check(
            c,
            "undistorted scale 7200 +/- 1 px, pass",
            abs(scale.length_px - 7200) <= 1 and scale.passed,
            f"{scale.length_px:.2f} px",
        ),
        _check(c, "21 exact wedge tones", tones == expected_tones, f"{tones[:4]}...{tones[-2:]}"),
        _check(
            c,
            "resolution limit within one group step of twice the pitch",
            1 / GROUP_STEP <= ratio <= GROUP_STEP,
            f"{smallest:.2f} um vs 2 x {raster.pitch_um:.2f} um (ratio {ratio:.3f})",
        ),
        _check(
            c,
            "0.2% injected scale error fails the verdict",
            not distorted.passed,
            f"{distorted.length_px:.1f} px vs tolerance {distorted.tolerance_px:.1f}",
        ),
        _check(
            c,
            "crop is the print box plus a 236 px border",
            cropped.width == expected_side and cropped.height == expected_side,
            f"{cropped.width}x{cropped.height} px (print {print_px} px)",
        ),
    ]


CHECKS: tuple[tuple[str, Callable[[], list[CheckResult]]], ...] = (
    ("throughput identities", check_throughput_identities),
    ("productivity ratios", check_productivity_ratios),
    ("simulation calibration", check_simulation_calibration),
    ("simulation invariants", check_simulation_properties),
    ("observed vs theoretical", check_observed_vs_theoretical),
    ("economics", check_economics),
    ("photogrammetry", check_photogrammetry),
    ("identifier parser", check_parser),
    ("preservation", check_preservation),
    ("calibration QC", check_calibration_qc),
)


def run_all() -> list[CheckResult]:
    results: list[CheckResult] = []
    for _, check in CHECKS:
        results.extend(check())
    return results
