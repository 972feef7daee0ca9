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

Each subcommand's handler returns what it produces, text (CSV), pieces
(a PGM's header and pixel buffers, a CSV's blocks of text) or a JSON
record or dict, and `main` writes it to `--out` (stdout when absent or "-"). A
handler that also writes `--trace` or `--csv` returns a list of (path,
result) pairs; paper-check returns (text, exit code).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

# qc and acceptance, and numpy with them, are imported by the handlers
# that use them, so the other commands start without numpy
from . import cell, economics, photogrammetry, preservation, sortie
from .codec import JsonRecord
from .errors import AnalysisError, ConfigError, DomainError, ParseError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
CSV_BLOCK_ROWS = 1 << 16  # sample rows per block of CSV text


def _write(result, path: str | None) -> None:
    """Write one result to `path`, or to stdout when `path` is None or "-":
    text as UTF-8, a record or dict as JSON with finite numbers only, and
    an iterable of pieces in order: each str as UTF-8 and any other piece
    as the buffer it is (bytes, or the pixels of a C-contiguous array)."""
    if isinstance(result, JsonRecord):
        result = result.to_json_dict()
    if isinstance(result, dict):
        try:
            result = json.dumps(result, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            # finite inputs whose result overflows to infinity
            raise DomainError(f"result is not finite: {exc}") from None
    if isinstance(result, str):
        result = (result,)
    to_file = path is not None and path != "-"
    with open(path, "wb") if to_file else contextlib.nullcontext(sys.stdout.buffer) as out:
        for piece in result:
            out.write(piece.encode() if isinstance(piece, str) else piece)


def _load(record, path: str | None, default=None):
    """`record` decoded from the JSON file at `path`, or `default()` when no
    path is given; a malformed file is a configuration error, and a file
    that cannot be read raises OSError, as every other input does."""
    if path is None:
        return default()
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an over-long integer,
        # nesting deeper than the decoder's recursion limit
        raise ConfigError(f"invalid JSON in {path}: {exc}")
    return record.from_json_dict(data)


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace):
    config = _load(cell.CellConfig, args.config, cell.CellConfig)
    trace, report = cell.simulate(config, seed=args.seed, horizon_seconds=args.hours * 3600.0)
    outputs = [(args.trace, trace.csv_blocks())] if args.trace is not None else []
    return outputs + [(args.out, report)]


def _cmd_throughput(args: argparse.Namespace):
    payload = cell.theoretical_throughput(args.mode).to_json_dict()
    if args.fleet is not None:
        payload["fleet"] = cell.fleet_throughput(args.fleet).to_json_dict()
    return payload


def _cmd_ratio(args: argparse.Namespace):
    return cell.productivity_ratio(
        cell.theoretical_throughput("robotic"),
        cell.theoretical_throughput("human_operated"),
    )


def _cmd_utilization(args: argparse.Namespace):
    return cell.observed_vs_theoretical(
        args.observed_daily, args.observed_weekly, cell.fleet_throughput(args.scanners)
    )


# -- cost ---------------------------------------------------------------------


def _cost_curve(args: argparse.Namespace, a, b):
    counts = economics.geometric_counts(args.start, args.stop, args.points)
    rows = [f"{n},{ca:.6f},{cb:.6f}\n" for n, ca, cb in economics.cost_curve(a, b, counts)]
    return "n,cost_per_scan_a,cost_per_scan_b\n" + "".join(rows)


def _cost_weeks(args: argparse.Namespace, a, b):
    if args.scans is None:
        raise ConfigError("cost weeks requires --scans")
    capacity = args.capacity if args.capacity is not None else a.weekly_capacity
    if capacity is None:
        raise ConfigError("no weekly capacity given or present in params")
    return economics.weeks_to_volume(args.scans, capacity)


_COST_ACTIONS = {
    "curve": _cost_curve,
    "breakeven": lambda args, a, b: {"break_even_scans": economics.break_even(a, b)},
    "halving": lambda args, a, b: {"cost_halving_scans": economics.cost_halving_point(a, b)},
    "weeks": _cost_weeks,
}


def _cmd_cost(args: argparse.Namespace):
    a = _load(economics.CostParams, args.a, economics.robotic_benchmark)
    b = _load(economics.CostParams, args.b, economics.manual_benchmark)
    return _COST_ACTIONS[args.action](args, a, b)


# -- qc ------------------------------------------------------------------------


def _cmd_qc_render(args: argparse.Namespace):
    from . import qc
    distortions = qc.Distortions(
        scale_error_fraction=args.scale_error,
        noise_sigma=args.noise_sigma,
        blur_radius_px=args.blur_px,
    )
    if args.noise_sigma > 0 and (args.seed is None or args.seed < 0):
        raise ConfigError("qc render with noise requires an explicit --seed of 0 or more")
    raster = qc.render_target(qc.default_geometry(), args.ppi, distortions, seed=args.seed or 0)
    return raster.pgm_pieces()


def _cmd_qc_analyze(args: argparse.Namespace):
    from . import qc
    source = Path(args.raster)
    if not source.is_dir():
        return qc.analyze_target(qc.GrayRaster.load(source)).to_json_dict()
    text = io.StringIO()
    rows = csv.writer(text, lineterminator="\n")
    header = "file,measured_scale_px,scale_verdict,wedge_monotone,smallest_resolvable_um,error"
    rows.writerow(header.split(","))
    for path in sorted(source.glob("*.pgm")):
        try:
            report = qc.analyze_target(qc.GrayRaster.load(path))
        except (AnalysisError, DomainError, OSError) as exc:  # an unreadable entry gets its own row
            rows.writerow((path.name, "", "", "", "", exc))
            continue
        scale, smallest = f"{report.measured_scale_px:.2f}", f"{report.smallest_resolvable_um:.2f}"
        verdict = report.to_json_dict()["scale_verdict"]
        rows.writerow((path.name, scale, verdict, report.wedge_monotone, smallest, ""))
    return text.getvalue()


def _cmd_qc_crop(args: argparse.Namespace):
    from . import qc
    border_mm = qc.analyze.BORDER_MM if args.border_mm is None else args.border_mm
    cropped = qc.crop_to_border(qc.GrayRaster.load(args.raster), border_mm=border_mm)
    return cropped.pgm_pieces()


# -- parse-id / preserve --------------------------------------------------------


def _cmd_parse_id(args: argparse.Namespace):
    parsed = sortie.parse(args.identifier, usaaf=args.usaaf)
    payload = parsed.to_json_dict()
    payload["canonical"] = sortie.canonical_format(parsed)
    return payload


def _cmd_preserve_plan(args: argparse.Namespace):
    return preservation.plan_remediation(_load(preservation.PrintCondition, args.condition))


def _sample_csv(conditions):
    """The sampled conditions as CSV text pieces: the header, then a
    newline before each block of `CSV_BLOCK_ROWS` rows, and a final newline."""
    yield ",".join(f.name for f in dataclasses.fields(preservation.PrintCondition))
    # boxes share at most 144 condition instances: render each one once
    distinct = dict(zip(map(id, conditions), conditions))
    text = {key: ",".join(map(str, c.to_json_dict().values())) for key, c in distinct.items()}
    for start in range(0, len(conditions), CSV_BLOCK_ROWS):
        block = conditions[start : start + CSV_BLOCK_ROWS]
        yield "\n"
        yield "\n".join(map(text.__getitem__, map(id, block)))
    yield "\n"


def _cmd_preserve_sample(args: argparse.Namespace):
    rates = _load(preservation.IssueRates, args.rates, preservation.IssueRates)
    conditions = preservation.sample_boxes(
        args.n, args.seed, rates, dependence=args.dependence
    )
    observed = preservation.aggregate_rates(conditions)
    outputs = []
    if args.csv is not None:
        outputs.append((args.csv, _sample_csv(conditions)))
    payload = observed.to_json_dict()
    payload["independent_any_intervention"] = preservation.independent_any_intervention_rate(rates)
    payload["configured_any_intervention"] = rates.any_intervention
    return outputs + [(args.out, payload)]


# -- photogrammetry ---------------------------------------------------------------


def _cmd_scale(args: argparse.Namespace):
    p = photogrammetry
    if args.focal_mm is not None:
        f = p.FocalLength(args.focal_mm)
    else:
        f = p.FocalLength.from_inches(args.focal_in)
    if args.altitude_m is not None:
        h = p.FlyingAltitude(args.altitude_m)
    else:
        h = p.FlyingAltitude.from_feet(args.altitude_ft)
    s = p.scale_from_focal_and_altitude(f, h)
    return {"scale_denominator": s.denominator, "display": str(s)}


def _cmd_feature(args: argparse.Namespace):
    p = photogrammetry
    value = p.smallest_resolvable_feature(p.LinePairResolution(args.lp_per_mm))
    return {"smallest_resolvable_um": value}


def _cmd_grd(args: argparse.Namespace):
    p = photogrammetry
    value = p.ground_resolved_distance(
        p.LinePairResolution(args.lp_per_mm), p.ScaleRatio(args.scale_denominator)
    )
    return {"ground_resolved_m": value}


def _cmd_pixel_range(args: argparse.Namespace):
    p = photogrammetry
    lo, hi = p.optimal_pixel_range(p.LinePairResolution(args.lp_per_mm))
    return {"min_um": lo.micrometers, "max_um": hi.micrometers}


def _cmd_adequacy(args: argparse.Namespace):
    p = photogrammetry
    verdict = p.sampling_adequacy(args.ppi, p.LinePairResolution(args.lp_per_mm))
    pitch = p.pixel_pitch_from_ppi(args.ppi)
    return {"pixel_pitch_um": pitch.micrometers, "verdict": verdict.value}


def _cmd_storage(args: argparse.Namespace):
    estimate = photogrammetry.storage_estimate(args.images, args.bytes_per_image)
    return {
        "total_bytes": estimate.total_bytes,
        "terabytes_decimal": estimate.terabytes(),
        "terabytes_binary": estimate.terabytes(binary=True),
    }


def _cmd_paper_check(args: argparse.Namespace):
    from . import acceptance
    results = acceptance.run_all()
    width = max(len(r.criterion) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.criterion:<{width}}  {r.name}: {r.detail}\n")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed\n")
    return "".join(lines), EXIT_OK if passed == len(results) else EXIT_DOMAIN


# -- parser -------------------------------------------------------------------


def _command(subparsers, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """Add the subcommand `name`, whose handler is `func`."""
    command = subparsers.add_parser(name, **kwargs)
    command.set_defaults(func=func)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scancell",
        description="Simulator and validation toolkit for a robot-assisted "
        "photograph digitization cell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = _command(sub, "simulate", _cmd_simulate, help="run the scanning-cell simulation")
    sim.add_argument("--config", help="CellConfig JSON file (defaults apply if omitted)")
    sim.add_argument("--seed", type=int, required=True, help="random seed (required)")
    sim.add_argument("--hours", type=float, required=True, help="horizon in hours")
    sim.add_argument("--trace", help="write the event trace CSV here")
    sim.add_argument(
        "--report", dest="out", metavar="REPORT",
        help="write the throughput report JSON here (default stdout)",
    )

    thr = _command(sub, "throughput", _cmd_throughput, help="closed-form throughput rates")
    thr.add_argument("--mode", choices=("human_operated", "robotic"), required=True)
    thr.add_argument("--fleet", type=int, help="also report rates for a fleet of N scanners")

    rat = _command(sub, "ratio", _cmd_ratio, help="robotic over manual productivity ratios")

    util = _command(sub, "utilization", _cmd_utilization, help="observed vs theoretical fleet rates")
    util.add_argument("--observed-daily", type=float, required=True)
    util.add_argument("--observed-weekly", type=float, required=True)
    util.add_argument("--scanners", type=int, default=14)

    cost = _command(sub, "cost", _cmd_cost, help="cost model")
    cost.add_argument("action", choices=_COST_ACTIONS)
    cost.add_argument("--a", help="cost params JSON for variant a (default robotic benchmark)")
    cost.add_argument("--b", help="cost params JSON for variant b (default manual benchmark)")
    cost.add_argument("--start", type=int, default=1000, help="curve: first scan count")
    cost.add_argument("--stop", type=int, default=10_000_000, help="curve: last scan count")
    cost.add_argument("--points", type=int, default=60, help="curve: grid size")
    cost.add_argument("--scans", type=int, help="weeks: target volume")
    cost.add_argument("--capacity", type=float, help="weeks: scans per week")

    qc_cmd = sub.add_parser("qc", help="calibration-target rendering and analysis")
    qc_sub = qc_cmd.add_subparsers(dest="action", required=True)
    render = _command(qc_sub, "render", _cmd_qc_render, help="render a synthetic calibration target")
    render.add_argument("--ppi", type=float, default=1200.0)
    render.add_argument("--out", required=True, help="output PGM path")
    render.add_argument("--scale-error", type=float, default=0.0)
    render.add_argument("--noise-sigma", type=float, default=0.0)
    render.add_argument("--blur-px", type=float, default=0.0)
    render.add_argument("--seed", type=int, help="required when noise is injected")
    analyze = _command(qc_sub, "analyze", _cmd_qc_analyze, help="analyze a target PGM (or directory)")
    analyze.add_argument("raster", help="PGM file, or directory for batch CSV")
    crop = _command(qc_sub, "crop", _cmd_qc_crop, help="crop a scan to the print plus border")
    crop.add_argument("raster")
    crop.add_argument("--out", required=True)
    crop.add_argument("--border-mm", type=float)  # default: qc.analyze.BORDER_MM

    pid = _command(sub, "parse-id", _cmd_parse_id, help="parse a sortie identifier")
    pid.add_argument("identifier")
    pid.add_argument("--usaaf", action="store_true", help="treat as a pre-standardization USAAF label")

    pres = sub.add_parser("preserve", help="remediation planning and sampling")
    pres_sub = pres.add_subparsers(dest="action", required=True)
    plan = _command(pres_sub, "plan", _cmd_preserve_plan, help="plan remediation for a condition JSON")
    plan.add_argument("condition", help="PrintCondition JSON file")
    samp = _command(pres_sub, "sample", _cmd_preserve_sample, help="draw synthetic box conditions")
    samp.add_argument("--n", type=int, required=True)
    samp.add_argument("--seed", type=int, required=True)
    samp.add_argument("--rates", help="IssueRates JSON file (defaults to archive rates)")
    samp.add_argument("--dependence", type=float, default=0.0)
    samp.add_argument("--csv", help="write sampled conditions CSV here")

    photo = sub.add_parser("photogrammetry", help="scale and resolution arithmetic")
    photo_sub = photo.add_subparsers(dest="action", required=True)
    scale = _command(photo_sub, "scale", _cmd_scale)
    focal = scale.add_mutually_exclusive_group(required=True)
    focal.add_argument("--focal-mm", type=float)
    focal.add_argument("--focal-in", type=float)
    altitude = scale.add_mutually_exclusive_group(required=True)
    altitude.add_argument("--altitude-m", type=float)
    altitude.add_argument("--altitude-ft", type=float)
    feature = _command(photo_sub, "feature", _cmd_feature)
    feature.add_argument("--lp-per-mm", type=float, required=True)
    grd = _command(photo_sub, "grd", _cmd_grd)
    grd.add_argument("--lp-per-mm", type=float, required=True)
    grd.add_argument("--scale-denominator", type=float, required=True)
    prange = _command(photo_sub, "pixel-range", _cmd_pixel_range)
    prange.add_argument("--lp-per-mm", type=float, required=True)
    adeq = _command(photo_sub, "adequacy", _cmd_adequacy)
    adeq.add_argument("--ppi", type=float, required=True)
    adeq.add_argument("--lp-per-mm", type=float, required=True)
    storage = _command(photo_sub, "storage", _cmd_storage)
    storage.add_argument("--images", type=int, required=True)
    storage.add_argument("--bytes-per-image", type=int, required=True)

    # every command whose result is JSON or CSV; --out comes last in its help
    for command in (thr, rat, util, cost, analyze, pid, plan, samp, *photo_sub.choices.values()):
        command.add_argument("--out")

    _command(
        sub, "paper-check", _cmd_paper_check,
        help="verify the toolkit against the published reference figures",
    )
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
        result, code = args.func(args), EXIT_OK
        if isinstance(result, tuple):  # paper-check: (table, exit code)
            result, code = result
        if not isinstance(result, list):
            result = [(getattr(args, "out", None), result)]
        for path, output in result:
            _write(output, path)
        return code
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
