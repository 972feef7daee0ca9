"""Command-line entry point.

Subcommands map one-to-one onto the library modules:

    simulate        run the scanning-cell simulation (trace CSV + report JSON)
    throughput      closed-form staffing/fleet rates
    ratio           productivity ratio of two staffing modes
    utilization     observed vs theoretical fleet rates
    cost            curve | breakeven | halving | weeks
    qc              render | analyze | crop (PGM rasters)
    parse-id        sortie identifier to JSON
    preserve        plan | sample
    photogrammetry  scale | feature | grd | pixel-range | adequacy | storage
    paper-check     run the published-figures acceptance suite

Every randomized command requires an explicit --seed, and there is no
environment-variable configuration, so identical argv and input files
give byte-identical outputs. Exit codes: 0 success, 1 domain or analysis
error, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cell, economics, photogrammetry, preservation, sortie
from .errors import AnalysisError, ConfigError, DomainError, ParseError
from .qc import (
    Distortions,
    GrayRaster,
    analyze_target,
    crop_to_border,
    default_geometry,
    render_target,
)
from .qc.analyze import BORDER_MM

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _dump_json(payload, out: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        # finite inputs whose result overflows to infinity
        raise DomainError(f"result is not finite: {exc}") from None
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {path}")
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an over-long integer,
        # nesting deeper than the decoder's recursion limit
        raise ConfigError(f"invalid JSON in {path}: {exc}")


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = (
        cell.CellConfig.from_json_dict(_load_json(args.config))
        if args.config
        else cell.CellConfig()
    )
    trace, report = cell.simulate(config, seed=args.seed, horizon_seconds=args.hours * 3600.0)
    if args.trace:
        _write_text(trace.to_csv(), args.trace)
    _dump_json(report.to_json_dict(), args.report)
    return EXIT_OK


def _cmd_throughput(args: argparse.Namespace) -> int:
    payload = cell.theoretical_throughput(args.mode).to_json_dict()
    if args.fleet is not None:
        payload["fleet"] = cell.fleet_throughput(args.fleet).to_json_dict()
    _dump_json(payload, args.out)
    return EXIT_OK


def _cmd_ratio(args: argparse.Namespace) -> int:
    ratio = cell.productivity_ratio(
        cell.theoretical_throughput("robotic"),
        cell.theoretical_throughput("human_operated"),
    )
    _dump_json(ratio.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_utilization(args: argparse.Namespace) -> int:
    report = cell.observed_vs_theoretical(
        args.observed_daily, args.observed_weekly, cell.fleet_throughput(args.scanners)
    )
    _dump_json(report.to_json_dict(), args.out)
    return EXIT_OK


# -- cost ---------------------------------------------------------------------


def _cost_params(path: str | None, benchmark: str) -> economics.CostParams:
    if path:
        return economics.CostParams.from_json_dict(_load_json(path))
    if benchmark == "robotic":
        return economics.robotic_benchmark()
    return economics.manual_benchmark()


def _cmd_cost(args: argparse.Namespace) -> int:
    a = _cost_params(args.a, "robotic")
    b = _cost_params(args.b, "manual")
    if args.action == "curve":
        counts = economics.geometric_counts(args.start, args.stop, args.points)
        lines = ["n,cost_per_scan_a,cost_per_scan_b"]
        for n, cost_a, cost_b in economics.cost_curve(a, b, counts):
            lines.append(f"{n},{cost_a:.6f},{cost_b:.6f}")
        _write_text("\n".join(lines) + "\n", args.out)
    elif args.action == "breakeven":
        n = economics.break_even(a, b)
        _dump_json({"break_even_scans": n}, args.out)
    elif args.action == "halving":
        n = economics.cost_halving_point(a, b)
        _dump_json({"cost_halving_scans": n}, args.out)
    else:  # weeks
        if args.scans is None:
            raise ConfigError("cost weeks requires --scans")
        capacity = args.capacity
        if capacity is None:
            if a.weekly_capacity is None:
                raise ConfigError("no weekly capacity given or present in params")
            capacity = a.weekly_capacity
        _dump_json(economics.weeks_to_volume(args.scans, capacity).to_json_dict(), args.out)
    return EXIT_OK


# -- qc ------------------------------------------------------------------------


def _cmd_qc(args: argparse.Namespace) -> int:
    if args.action == "render":
        distortions = Distortions(
            scale_error_fraction=args.scale_error,
            noise_sigma=args.noise_sigma,
            blur_radius_px=args.blur_px,
        )
        if args.noise_sigma > 0 and args.seed is None:
            raise ConfigError("qc render with noise requires an explicit --seed")
        raster = render_target(
            default_geometry(), args.ppi, distortions, seed=args.seed or 0
        )
        raster.save(args.out)
        return EXIT_OK
    if args.action == "analyze":
        source = Path(args.raster)
        if source.is_dir():
            rows = ["file,measured_scale_px,scale_verdict,wedge_monotone,smallest_resolvable_um,error"]
            for path in sorted(source.glob("*.pgm")):
                try:
                    report = analyze_target(GrayRaster.load(path))
                    rows.append(
                        f"{path.name},{report.measured_scale_px:.2f},"
                        f"{'pass' if report.scale_verdict else 'fail'},"
                        f"{report.wedge_monotone},{report.smallest_resolvable_um:.2f},"
                    )
                except (AnalysisError, DomainError) as exc:
                    rows.append(f"{path.name},,,,,{exc}")
            _write_text("\n".join(rows) + "\n", args.out)
            return EXIT_OK
        report = analyze_target(GrayRaster.load(source))
        _dump_json(report.to_json_dict(), args.out)
        return EXIT_OK
    # crop
    raster = GrayRaster.load(args.raster)
    cropped = crop_to_border(raster, border_mm=args.border_mm)
    cropped.save(args.out)
    return EXIT_OK


# -- parse-id / preserve --------------------------------------------------------


def _cmd_parse_id(args: argparse.Namespace) -> int:
    parsed = sortie.parse(args.identifier, usaaf=args.usaaf)
    payload = parsed.to_json_dict()
    payload["canonical"] = sortie.canonical_format(parsed)
    _dump_json(payload, args.out)
    return EXIT_OK


def _cmd_preserve(args: argparse.Namespace) -> int:
    if args.action == "plan":
        condition = preservation.PrintCondition.from_json_dict(_load_json(args.condition))
        plan = preservation.plan_remediation(condition)
        _dump_json(plan.to_json_dict(), args.out)
        return EXIT_OK
    # sample
    rates = (
        preservation.IssueRates.from_json_dict(_load_json(args.rates))
        if args.rates
        else preservation.IssueRates()
    )
    conditions = preservation.sample_boxes(
        args.n, args.seed, rates, dependence=args.dependence
    )
    observed = preservation.aggregate_rates(conditions)
    if args.csv:
        lines = [
            "mould,blocking,silver_dust,annotations_or_adhesives,"
            "curling_or_creases,rips_or_peeling"
        ]
        for c in conditions:
            lines.append(
                f"{c.mould.value},{c.blocking},{c.silver_dust},"
                f"{c.annotations_or_adhesives},{c.curling_or_creases},"
                f"{c.rips_or_peeling.value}"
            )
        _write_text("\n".join(lines) + "\n", args.csv)
    payload = observed.to_json_dict()
    payload["independent_any_intervention"] = preservation.independent_any_intervention_rate(rates)
    payload["configured_any_intervention"] = rates.any_intervention
    _dump_json(payload, args.out)
    return EXIT_OK


# -- photogrammetry ---------------------------------------------------------------


def _cmd_photogrammetry(args: argparse.Namespace) -> int:
    p = photogrammetry
    if args.action == "scale":
        if args.focal_mm is not None:
            f = p.FocalLength(args.focal_mm)
        else:
            f = p.FocalLength.from_inches(args.focal_in)
        if args.altitude_m is not None:
            h = p.FlyingAltitude(args.altitude_m)
        else:
            h = p.FlyingAltitude.from_feet(args.altitude_ft)
        s = p.scale_from_focal_and_altitude(f, h)
        _dump_json({"scale_denominator": s.denominator, "display": str(s)}, args.out)
    elif args.action == "feature":
        value = p.smallest_resolvable_feature(p.LinePairResolution(args.lp_per_mm))
        _dump_json({"smallest_resolvable_um": value}, args.out)
    elif args.action == "grd":
        value = p.ground_resolved_distance(
            p.LinePairResolution(args.lp_per_mm), p.ScaleRatio(args.scale_denominator)
        )
        _dump_json({"ground_resolved_m": value}, args.out)
    elif args.action == "pixel-range":
        lo, hi = p.optimal_pixel_range(p.LinePairResolution(args.lp_per_mm))
        _dump_json({"min_um": lo.micrometers, "max_um": hi.micrometers}, args.out)
    elif args.action == "adequacy":
        verdict = p.sampling_adequacy(args.ppi, p.LinePairResolution(args.lp_per_mm))
        pitch = p.pixel_pitch_from_ppi(args.ppi)
        _dump_json({"pixel_pitch_um": pitch.micrometers, "verdict": verdict.value}, args.out)
    else:  # storage
        estimate = p.storage_estimate(args.images, args.bytes_per_image)
        _dump_json(
            {
                "total_bytes": estimate.total_bytes,
                "terabytes_decimal": estimate.terabytes(),
                "terabytes_binary": estimate.terabytes(binary=True),
            },
            args.out,
        )
    return EXIT_OK


def _cmd_paper_check(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    results = run_all()
    width = max(len(r.criterion) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] {r.criterion:<{width}}  {r.name}: {r.detail}\n")
        failures += not r.passed
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} checks passed\n"
    )
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scancell",
        description="Simulator and validation toolkit for a robot-assisted "
        "photograph digitization cell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the scanning-cell simulation")
    sim.add_argument("--config", help="CellConfig JSON file (defaults apply if omitted)")
    sim.add_argument("--seed", type=int, required=True, help="random seed (required)")
    sim.add_argument("--hours", type=float, required=True, help="horizon in hours")
    sim.add_argument("--trace", help="write the event trace CSV here")
    sim.add_argument("--report", help="write the throughput report JSON here (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    thr = sub.add_parser("throughput", help="closed-form throughput rates")
    thr.add_argument("--mode", choices=("human_operated", "robotic"), required=True)
    thr.add_argument("--fleet", type=int, help="also report rates for a fleet of N scanners")
    thr.add_argument("--out")
    thr.set_defaults(func=_cmd_throughput)

    rat = sub.add_parser("ratio", help="robotic over manual productivity ratios")
    rat.add_argument("--out")
    rat.set_defaults(func=_cmd_ratio)

    util = sub.add_parser("utilization", help="observed vs theoretical fleet rates")
    util.add_argument("--observed-daily", type=float, required=True)
    util.add_argument("--observed-weekly", type=float, required=True)
    util.add_argument("--scanners", type=int, default=14)
    util.add_argument("--out")
    util.set_defaults(func=_cmd_utilization)

    cost = sub.add_parser("cost", help="cost model")
    cost.add_argument("action", choices=("curve", "breakeven", "halving", "weeks"))
    cost.add_argument("--a", help="cost params JSON for variant a (default robotic benchmark)")
    cost.add_argument("--b", help="cost params JSON for variant b (default manual benchmark)")
    cost.add_argument("--start", type=int, default=1000, help="curve: first scan count")
    cost.add_argument("--stop", type=int, default=10_000_000, help="curve: last scan count")
    cost.add_argument("--points", type=int, default=60, help="curve: grid size")
    cost.add_argument("--scans", type=int, help="weeks: target volume")
    cost.add_argument("--capacity", type=float, help="weeks: scans per week")
    cost.add_argument("--out")
    cost.set_defaults(func=_cmd_cost)

    qc = sub.add_parser("qc", help="calibration-target rendering and analysis")
    qc_sub = qc.add_subparsers(dest="action", required=True)
    render = qc_sub.add_parser("render", help="render a synthetic calibration target")
    render.add_argument("--ppi", type=float, default=1200.0)
    render.add_argument("--out", required=True, help="output PGM path")
    render.add_argument("--scale-error", type=float, default=0.0)
    render.add_argument("--noise-sigma", type=float, default=0.0)
    render.add_argument("--blur-px", type=float, default=0.0)
    render.add_argument("--seed", type=int, help="required when noise is injected")
    render.set_defaults(func=_cmd_qc)
    analyze = qc_sub.add_parser("analyze", help="analyze a target PGM (or directory)")
    analyze.add_argument("raster", help="PGM file, or directory for batch CSV")
    analyze.add_argument("--out")
    analyze.set_defaults(func=_cmd_qc)
    crop = qc_sub.add_parser("crop", help="crop a scan to the print plus border")
    crop.add_argument("raster")
    crop.add_argument("--out", required=True)
    crop.add_argument("--border-mm", type=float, default=BORDER_MM)
    crop.set_defaults(func=_cmd_qc)

    pid = sub.add_parser("parse-id", help="parse a sortie identifier")
    pid.add_argument("identifier")
    pid.add_argument("--usaaf", action="store_true", help="treat as a pre-standardization USAAF label")
    pid.add_argument("--out")
    pid.set_defaults(func=_cmd_parse_id)

    pres = sub.add_parser("preserve", help="remediation planning and sampling")
    pres_sub = pres.add_subparsers(dest="action", required=True)
    plan = pres_sub.add_parser("plan", help="plan remediation for a condition JSON")
    plan.add_argument("condition", help="PrintCondition JSON file")
    plan.add_argument("--out")
    plan.set_defaults(func=_cmd_preserve)
    samp = pres_sub.add_parser("sample", help="draw synthetic box conditions")
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--seed", type=int, required=True)
    samp.add_argument("--rates", help="IssueRates JSON file (defaults to archive rates)")
    samp.add_argument("--dependence", type=float, default=0.0)
    samp.add_argument("--csv", help="write sampled conditions CSV here")
    samp.add_argument("--out")
    samp.set_defaults(func=_cmd_preserve)

    photo = sub.add_parser("photogrammetry", help="scale and resolution arithmetic")
    photo_sub = photo.add_subparsers(dest="action", required=True)
    scale = photo_sub.add_parser("scale")
    focal = scale.add_mutually_exclusive_group(required=True)
    focal.add_argument("--focal-mm", type=float)
    focal.add_argument("--focal-in", type=float)
    altitude = scale.add_mutually_exclusive_group(required=True)
    altitude.add_argument("--altitude-m", type=float)
    altitude.add_argument("--altitude-ft", type=float)
    scale.add_argument("--out")
    scale.set_defaults(func=_cmd_photogrammetry)
    feature = photo_sub.add_parser("feature")
    feature.add_argument("--lp-per-mm", type=float, required=True)
    feature.add_argument("--out")
    feature.set_defaults(func=_cmd_photogrammetry)
    grd = photo_sub.add_parser("grd")
    grd.add_argument("--lp-per-mm", type=float, required=True)
    grd.add_argument("--scale-denominator", type=float, required=True)
    grd.add_argument("--out")
    grd.set_defaults(func=_cmd_photogrammetry)
    prange = photo_sub.add_parser("pixel-range")
    prange.add_argument("--lp-per-mm", type=float, required=True)
    prange.add_argument("--out")
    prange.set_defaults(func=_cmd_photogrammetry)
    adeq = photo_sub.add_parser("adequacy")
    adeq.add_argument("--ppi", type=float, required=True)
    adeq.add_argument("--lp-per-mm", type=float, required=True)
    adeq.add_argument("--out")
    adeq.set_defaults(func=_cmd_photogrammetry)
    storage = photo_sub.add_parser("storage")
    storage.add_argument("--images", type=int, required=True)
    storage.add_argument("--bytes-per-image", type=int, required=True)
    storage.add_argument("--out")
    storage.set_defaults(func=_cmd_photogrammetry)

    check = sub.add_parser(
        "paper-check", help="verify the toolkit against the published reference figures"
    )
    check.set_defaults(func=_cmd_paper_check)

    return parser


_MODULE_BY_COMMAND = {
    "simulate": "cell",
    "throughput": "cell",
    "ratio": "cell",
    "utilization": "cell",
    "cost": "economics",
    "qc": "qc",
    "parse-id": "sortie",
    "preserve": "preservation",
    "photogrammetry": "photogrammetry",
    "paper-check": "acceptance",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    module = _MODULE_BY_COMMAND.get(args.command, args.command)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"{module}: configuration error: {exc}\n")
        return EXIT_USAGE
    except (DomainError, ParseError, AnalysisError) as exc:
        sys.stderr.write(f"{module}: {exc}\n")
        return EXIT_DOMAIN
    except OverflowError as exc:
        # an integer argument beyond the float range, e.g. a 400-digit --fleet
        sys.stderr.write(f"{module}: numeric overflow: {exc}\n")
        return EXIT_DOMAIN
    except OSError as exc:
        sys.stderr.write(f"{module}: i/o error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
