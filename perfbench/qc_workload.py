"""QC raster workload: render, encode, decode and analyze calibration targets.

The only workload on the numpy raster path. At 2400 ppi one render is
most of the pass and sets the peak memory, which is where strip
rendering or a byte budget would show.
"""
from __future__ import annotations

import random
from types import SimpleNamespace

from scancell.qc import (
    Distortions,
    GrayRaster,
    analyze_target,
    crop_to_border,
    default_geometry,
    render_print_scan,
    render_target,
    wedge_level,
)

from common import PassResult, Workload, median_of, sha256_hex
from spans import clock

PPIS = (600, 1200, 2400)
# Noise at 2400 ppi would add ~4 s and ~0.5 GB to each pass without
# reaching any code the 600 and 1200 ppi targets do not already run.
NOISY_PPIS = (600, 1200)
MIN_PPI = 600  # the coarsest resolution the target's analyzers are specified for
SCALE_ERROR_PPI = 600
PRINT_SCAN_PPI = 1200
SCALE_ERROR = 0.002
PRINT_SIDE_MM = 228.6
BORDER_MM = 5.0
MM_PER_INCH = 25.4
# one resolution-group step, the tolerance of acceptance criterion 10
GROUP_STEP = 2.0 ** (1.0 / 6.0)
EXACT_WEDGE = tuple(wedge_level(k) for k in range(21))


def _pixels(raster, args) -> int:
    return raster.width * raster.height


def layers(tracer) -> SimpleNamespace:
    wrap = tracer.wrap
    return SimpleNamespace(
        render={
            ppi: wrap(f"qc.target.render.{ppi}", render_target, work=_pixels) for ppi in PPIS
        },
        render_scale_error=wrap("qc.target.render.scale_error", render_target, work=_pixels),
        print_scan=wrap("qc.target.print_scan", render_print_scan, work=_pixels),
        encode=wrap("qc.raster.encode", GrayRaster.to_pgm_bytes, work=lambda out, args: len(out)),
        decode=wrap("qc.raster.decode", GrayRaster.from_pgm_bytes, work=lambda out, args: len(args[0])),
        analyze={ppi: wrap(f"qc.analyze.analyze.{ppi}", analyze_target) for ppi in PPIS},
        analyze_scale_error=wrap("qc.analyze.analyze.scale_error", analyze_target),
        crop=wrap("qc.analyze.crop", crop_to_border),
    )


def build(seed: int, scale: float) -> SimpleNamespace:
    """Seeded blur per target, and noise below 2400 ppi; `scale` < 1 lowers every ppi toward 600."""
    rng = random.Random(seed)
    targets = [
        SimpleNamespace(
            slot=ppi,
            ppi=max(MIN_PPI, round(ppi * scale)),
            # blur and noise stay inside the range where every verdict still holds
            distortions=Distortions(
                noise_sigma=rng.uniform(0.5, 2.0) if ppi in NOISY_PPIS else 0.0,
                blur_radius_px=rng.uniform(0.2, 0.6),
            ),
            noise_seed=rng.randrange(2**31),
        )
        for ppi in PPIS
    ]
    return SimpleNamespace(
        geometry=default_geometry(),
        targets=targets,
        scale_error=Distortions(scale_error_fraction=rng.choice((-SCALE_ERROR, SCALE_ERROR))),
        print_ppi=max(MIN_PPI, round(PRINT_SCAN_PPI * scale)),
    )


def run_pass(layer, tracer, inputs) -> PassResult:
    result = PassResult()
    geom = inputs.geometry
    for target in inputs.targets:

        def one_target() -> bool:
            start = clock()
            raster = layer.render[target.slot](geom, target.ppi, target.distortions, target.noise_seed)
            data = layer.encode(raster)
            decoded = layer.decode(data)
            report = layer.analyze[target.slot](decoded, geom)
            result.timers[f"qc_{target.slot}_s"] = clock() - start
            result.stats[f"target_{target.slot}"] = {**report.to_json_dict(), "pgm_sha256": sha256_hex(data)}
            ratio = report.smallest_resolvable_um / (2 * decoded.pitch_um)
            noisy = target.distortions.noise_sigma > 0
            return (
                decoded == raster
                and report.scale_verdict
                and (report.wedge_monotone if noisy else report.wedge_values == EXACT_WEDGE)
                and 1 / GROUP_STEP <= ratio <= GROUP_STEP
            )

        result.run_op(tracer, f"target-{target.slot}", one_target)

    def scale_error_target() -> bool:
        raster = layer.render_scale_error(geom, SCALE_ERROR_PPI, inputs.scale_error)
        decoded = layer.decode(layer.encode(raster))
        report = layer.analyze_scale_error(decoded, geom)
        result.stats["target_scale_error"] = report.to_json_dict()
        return decoded == raster and not report.scale_verdict and report.wedge_values == EXACT_WEDGE

    def print_scan() -> bool:
        ppi = inputs.print_ppi
        cropped = layer.crop(layer.print_scan(ppi), BORDER_MM)
        side = round(PRINT_SIDE_MM * ppi / MM_PER_INCH) + 2 * round(BORDER_MM * ppi / MM_PER_INCH)
        result.stats["print_crop_px"] = [cropped.width, cropped.height]
        return cropped.width == side and cropped.height == side

    result.run_op(tracer, "scale-error", scale_error_target)
    result.run_op(tracer, "print-crop", print_scan)
    return result


def summarize(passes: list[PassResult], pass_s: float) -> dict:
    return {f"qc_{ppi}_s": (median_of(passes, f"qc_{ppi}_s"), "s") for ppi in PPIS}


QC_PPI = Workload(
    build=build,
    layers=layers,
    run_pass=run_pass,
    summarize=summarize,
    reference="pages",
)
