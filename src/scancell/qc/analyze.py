"""Calibration-strip analysis: measure scale, step wedge, resolution
target, and print cropping.

The analyzer works from intensity profiles and never assumes generator
step values, only ordering and contrast. Thresholds sit midway between
the 10th and 90th intensity percentiles of the profile under test, which
tolerates moderate blur and noise and keeps results reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..codec import JsonRecord
from ..errors import AnalysisError, DomainError
from .raster import GrayRaster
from .target import (
    MEASURE_SCALE_INCHES,
    MM_PER_INCH,
    SCALE_BAND_MM,
    WEDGE_SEGMENTS,
    CalibrationGeometry,
    TargetLayout,
    default_geometry,
)

MIN_CONTRAST = 16  # intensity spread below this means no usable signal
BORDER_MM = 5.0  # background kept around the print by crops and reports


def _profile_threshold(profile: np.ndarray) -> float:
    p10, p90 = np.percentile(profile, (10.0, 90.0))
    if p90 - p10 < MIN_CONTRAST:
        raise AnalysisError("profile has no usable contrast")
    return (p10 + p90) / 2.0


def _dark_runs(profile: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Maximal runs of columns strictly below the threshold, as [start, end)."""
    # padded with a light column at each end, the changes alternate start, end
    below = np.concatenate(([False], profile < threshold, [False]))
    edges = np.flatnonzero(np.diff(below)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _run_centroid(profile: np.ndarray, threshold: float, run: tuple[int, int]) -> float:
    start, end = run
    cols = np.arange(start, end, dtype=np.float64) + 0.5
    weights = threshold - profile[start:end].astype(np.float64)
    weights = np.clip(weights, 0.0, None)
    total = weights.sum()
    if total <= 0:
        return float(cols.mean())
    return float((cols * weights).sum() / total)


@dataclass(frozen=True)
class ScaleMeasurement(JsonRecord):
    length_px: float
    expected_px: float
    tolerance_px: float
    passed: bool


def measure_scale_px(raster: GrayRaster) -> ScaleMeasurement:
    """Distance in pixels between the terminal ticks of the 6-inch measure scale.

    The verdict passes when the measured length is within the scanner's
    rated accuracy of 0.1% plus one pixel of the expected length. Tick
    labeling itself is only accurate to a pixel or two, which the +1 px
    term absorbs.
    """
    px = raster.ppi / MM_PER_INCH
    r0, r1 = round(SCALE_BAND_MM[0] * px), min(raster.height, round(SCALE_BAND_MM[1] * px))
    if r1 <= r0:
        raise AnalysisError("scale row band lies outside the raster")
    profile = np.median(raster.pixels[r0:r1, :], axis=0)
    # ticks are sparse against the band, so threshold on the profile
    # extrema rather than percentiles
    lo, hi = float(profile.min()), float(profile.max())
    if hi - lo < MIN_CONTRAST:
        raise AnalysisError("measure scale not found: band has no contrast")
    threshold = (lo + hi) / 2.0
    runs = _dark_runs(profile, threshold)
    if len(runs) < 2:
        raise AnalysisError(
            f"measure scale needs two terminal ticks, found {len(runs)} dark runs"
        )
    left = _run_centroid(profile, threshold, runs[0])
    right = _run_centroid(profile, threshold, runs[-1])
    length = right - left
    expected_px = MEASURE_SCALE_INCHES * raster.ppi
    tolerance = 0.001 * expected_px + 1.0
    return ScaleMeasurement(length, expected_px, tolerance, abs(length - expected_px) <= tolerance)


def wedge_tones(
    raster: GrayRaster,
    first_centroid: tuple[int, int],
    last_centroid: tuple[int, int],
) -> tuple[int, ...]:
    """Median intensity at 21 centroids interpolated between the two given.

    The caller labels the first and last wedge bars; intermediate
    centroids are linear interpolations. The median window rejects noise
    without assuming anything about the step values.
    """
    if first_centroid == last_centroid:
        raise DomainError("first and last centroids coincide; wedge axis undefined")
    for name, (x, y) in (("first", first_centroid), ("last", last_centroid)):
        if not (0 <= x < raster.width and 0 <= y < raster.height):
            raise DomainError(f"{name} centroid {x, y} lies outside the raster")
    r = max(2, round(0.4 * raster.ppi / MM_PER_INCH))
    xs = np.linspace(first_centroid[0], last_centroid[0], WEDGE_SEGMENTS)
    ys = np.linspace(first_centroid[1], last_centroid[1], WEDGE_SEGMENTS)
    tones = []
    for x, y in zip(xs, ys):
        cx, cy = round(x), round(y)
        window = raster.pixels[
            max(0, cy - r) : min(raster.height, cy + r + 1),
            max(0, cx - r) : min(raster.width, cx + r + 1),
        ]
        tones.append(int(round(float(np.median(window)))))
    return tuple(tones)


def is_monotone(values: tuple[int, ...]) -> bool:
    ascending = all(a <= b for a, b in zip(values, values[1:]))
    descending = all(a >= b for a, b in zip(values, values[1:]))
    return ascending or descending


def smallest_resolvable_um(raster: GrayRaster, geom: CalibrationGeometry | None = None) -> float:
    """Line width of the finest bar group that still counts correctly.

    Groups are walked from coarsest to finest; a group counts when the
    number of dark runs in its thresholded profile equals its bar count.
    The walk stops at the first failure, mirroring how a person reads a
    resolution chart.
    """
    geom = geom or default_geometry()
    if not geom.groups:
        raise DomainError("geometry has no resolution groups")
    layout = TargetLayout.compute(geom, raster.ppi)
    px = raster.ppi / MM_PER_INCH
    r0, r1 = layout.element_band_rows
    inset = max(1, round((r1 - r0) * 0.15))
    rows = raster.pixels[r0 + inset : r1 - inset, :]
    # tight window: enough white margin to anchor the 90th percentile
    # without drowning the bars out of the 10th
    pad = 0.25 * px
    last_counting: float | None = None
    for box in layout.group_boxes:
        c0 = max(0, int(box.x0_px - pad))
        c1 = min(raster.width, int(np.ceil(box.x1_px + pad)))
        if c1 <= c0:
            break
        profile = np.median(rows[:, c0:c1], axis=0)
        try:
            threshold = _profile_threshold(profile)
        except AnalysisError:
            break
        if len(_dark_runs(profile, threshold)) != box.group.bar_count:
            break
        last_counting = box.group.line_width_um
    if last_counting is None:
        raise AnalysisError("no resolution group could be counted")
    return last_counting


def find_print_box(raster: GrayRaster, border_mm: float = 0.0) -> tuple[int, int, int, int]:
    """Bounding box (left, top, right, bottom), half-open, of the light
    print region against the dark background, widened by `border_mm` of
    background on each side and clamped at the raster edges (a print flush
    against an edge keeps whatever margin exists there)."""
    if not 0 <= border_mm < np.inf:
        raise DomainError("border must be finite and non-negative")
    pixels = raster.pixels
    try:
        threshold = _profile_threshold(pixels)
    except AnalysisError:
        if np.median(pixels) > 127:
            return (0, 0, raster.width, raster.height)
        raise AnalysisError("no light print region found") from None
    mask = pixels > threshold
    min_count_col = max(1, round(0.001 * raster.width))
    min_count_row = max(1, round(0.001 * raster.height))
    rows = np.flatnonzero(mask.sum(axis=1) >= min_count_col)
    cols = np.flatnonzero(mask.sum(axis=0) >= min_count_row)
    if rows.size == 0 or cols.size == 0:
        raise AnalysisError("no light print region found")
    margin = round(border_mm * raster.ppi / MM_PER_INCH)
    return (
        max(0, int(cols[0]) - margin),
        max(0, int(rows[0]) - margin),
        min(raster.width, int(cols[-1]) + 1 + margin),
        min(raster.height, int(rows[-1]) + 1 + margin),
    )


def crop_to_border(raster: GrayRaster, border_mm: float = BORDER_MM) -> GrayRaster:
    """Crop to the print plus a uniform dark border of `border_mm`, as
    `find_print_box` bounds it."""
    left, top, right, bottom = find_print_box(raster, border_mm)
    return GrayRaster(raster.pixels[top:bottom, left:right].copy(), raster.ppi)


@dataclass(frozen=True)
class CalibrationReport:
    """Measured quality-control results for one calibration strip (written only)."""

    measured_scale_px: float
    expected_scale_px: float
    scale_tolerance_px: float
    scale_verdict: bool
    wedge_values: tuple[int, ...]
    wedge_monotone: bool
    smallest_resolvable_um: float
    crop_box: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.wedge_values) != WEDGE_SEGMENTS:
            raise DomainError(f"wedge_values must have exactly {WEDGE_SEGMENTS} entries")

    def to_json_dict(self) -> dict:
        """Fields in declaration order; the scale verdict as "pass" or "fail"."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["scale_verdict"] = "pass" if self.scale_verdict else "fail"
        return out


def analyze_target(
    raster: GrayRaster, geom: CalibrationGeometry | None = None
) -> CalibrationReport:
    """Full QC pass over a rendered or scanned calibration strip; the crop
    box keeps `BORDER_MM` of background around the print."""
    geom = geom or default_geometry()
    layout = TargetLayout.compute(geom, raster.ppi)
    scale = measure_scale_px(raster)
    wedge = wedge_tones(raster, layout.wedge_first_centroid, layout.wedge_last_centroid)
    smallest = smallest_resolvable_um(raster, geom)
    if smallest < raster.pitch_um:
        raise AnalysisError(
            f"measured resolution {smallest:.1f} um finer than the pixel pitch"
        )
    try:
        box = find_print_box(raster, BORDER_MM)
    except AnalysisError:
        box = (0, 0, raster.width, raster.height)
    return CalibrationReport(
        measured_scale_px=scale.length_px,
        expected_scale_px=scale.expected_px,
        scale_tolerance_px=scale.tolerance_px,
        scale_verdict=scale.passed,
        wedge_values=wedge,
        wedge_monotone=is_monotone(wedge),
        smallest_resolvable_um=smallest,
        crop_box=box,
    )
