"""Calibration-strip analysis: measure scale, step wedge, resolution
target, and print cropping.

The analyzer works from intensity profiles and never assumes generator
step values, only ordering and contrast. Thresholds sit midway between
the 10th and 90th intensity percentiles of the profile under test, which
tolerates moderate blur and noise and keeps results reproducible.

The print crop thresholds the whole scan the same way. Its percentiles,
and the median (50th percentile) of its no-contrast fallback, equal
those of `np.percentile` exactly. Each pixel value they interpolate is
read off a 256-bin count of a strided sample of at most `STRIP_PX`
pixels, then checked by one pass over the scan, a strip of rows at a
time, that counts the pixels at or below it and at or below the level
under it. Each tile's minimum and maximum decide every level outside
its range, so only a tile whose range holds a level has its pixels
compared; on a print scan, whose tiles are nearly all background or all
print, few are. Should a check fail, the values are read off
a 256-bin count of every pixel instead. The box is then found inward
from the edges: light pixels are counted a strip of rows at a time from
the top until a row qualifies, then from the bottom; the rows between
are counted in column blocks from the left and then from the right,
onto the column counts of the rows already counted, until a column
qualifies. A tile whose brightest pixel is not light is skipped. Every
row and column that can bound the box is thus counted in full, the
interior of a centred print is never counted, and no temporary is
larger than one tile of `STRIP_PX` pixels, the strip size that also
bounds a noisy render.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..codec import JsonRecord
from ..errors import AnalysisError, DomainError
from .raster import STRIP_PX, GrayRaster
from .target import (
    MEASURE_SCALE_INCHES,
    MM_PER_INCH,
    SCALE_BAND_MM,
    WEDGE_SEGMENTS,
    CalibrationGeometry,
    TargetLayout,
    band_rows,
    default_geometry,
)

MIN_CONTRAST = 16  # intensity spread below this means no usable signal
BORDER_MM = 5.0  # background kept around the print by crops and reports


def _midway(p10: float, p90: float) -> float:
    if p90 - p10 < MIN_CONTRAST:
        raise AnalysisError("profile has no usable contrast")
    return (p10 + p90) / 2.0


def _profile_threshold(profile: np.ndarray) -> float:
    return _midway(*np.percentile(profile, (10.0, 90.0)))


def _tiles(pixels: np.ndarray):
    """Row-major tiles `(row, col, tile)` of at most `STRIP_PX` pixels:
    strips of whole rows, split across columns only when one row is wider."""
    height, width = pixels.shape
    cols = min(width, STRIP_PX) or 1
    rows = max(1, STRIP_PX // cols)
    for r in range(0, height, rows):
        for c in range(0, width, cols):
            yield r, c, pixels[r : r + rows, c : c + cols]


def _histogram(pixels: np.ndarray) -> np.ndarray:
    """Count of each of the 256 intensities of a uint8 array."""
    # bincount over uint16 pairs of neighbouring pixels handles half as many
    # elements as over the pixels; each pair then counts for both its bytes.
    # A tile of fewer pixels than pair bins counts its bytes instead, so each
    # count's size follows the tile's shape alone, never the pixel values
    pairs = np.zeros(1 << 16, dtype=np.intp)
    hist = np.zeros(256, dtype=np.intp)
    for _, _, tile in _tiles(pixels):
        flat = np.ascontiguousarray(tile).reshape(-1)
        if 1 < flat.size < 1 << 16:
            hist += np.bincount(flat, minlength=256)
            continue
        even = flat.size & ~1
        if even:  # a one-pixel tile has no pair
            pairs += np.bincount(flat[:even].view(np.uint16), minlength=1 << 16)
        if even < flat.size:
            hist[flat[-1]] += 1
    folded = pairs.reshape(256, 256)
    return hist + folded.sum(axis=0) + folded.sum(axis=1)


def _order_stat(cumulative: np.ndarray, k: int) -> int:
    """The k-th smallest (0-based) of the values counted by `cumulative`."""
    return int(np.searchsorted(cumulative, k, side="right"))


def _sample(pixels: np.ndarray) -> np.ndarray:
    """Every `step`-th pixel of every `step`-th row, for the least step
    that keeps the sample within `STRIP_PX` pixels."""
    height, width = pixels.shape
    step = max(1, math.isqrt(pixels.size // STRIP_PX))
    while -(-height // step) * -(-width // step) > STRIP_PX:
        step += 1
    return pixels[::step, ::step]


def _count_at_most(pixels: np.ndarray, levels) -> dict[int, int]:
    """The pixels at or below each level, counted in one tiled pass. A
    tile's range decides a level outside it: the whole tile is at or below
    a level from its maximum up, and none of it below its minimum (read
    only once a level lies below the maximum)."""
    at_most = dict.fromkeys(levels, 0)
    for _, _, tile in _tiles(pixels):
        high, low = int(tile.max()), None
        for level in at_most:
            if level >= high:
                at_most[level] += tile.size
                continue
            if low is None:
                low = int(tile.min())
            if level >= low:
                at_most[level] += np.count_nonzero(tile <= level)
    return at_most


def _order_stats(pixels: np.ndarray, ranks: list[int]) -> list[int]:
    """The k-th smallest (0-based) pixel of a non-empty uint8 array for
    each k in `ranks`: read off the sample's count at the same quantile and
    kept if at most k pixels lie below it and more than k at or below it,
    which one tiled pass counts; else read off the count of every pixel."""
    sample = _sample(pixels)
    cumulative = np.cumsum(_histogram(sample))
    found = [_order_stat(cumulative, k * sample.size // pixels.size) for k in ranks]
    levels = {level for c in found for level in (c - 1, c)} - {-1, 255}
    at_most = {-1: 0, 255: pixels.size, **_count_at_most(pixels, levels)}
    if not all(at_most[c - 1] <= k < at_most[c] for c, k in zip(found, ranks)):
        cumulative = np.cumsum(_histogram(pixels))
        found = [_order_stat(cumulative, k) for k in ranks]
    return found


def _percentiles(pixels: np.ndarray, qs: tuple[float, ...]) -> tuple[float, ...]:
    """`np.percentile` of a non-empty uint8 array, with its default linear
    interpolation taken step for step so the result is bit-identical."""
    n = pixels.size
    indices = [(n - 1) * (q / 100) for q in qs]
    los = [min(max(math.floor(index), 0), n - 1) for index in indices]
    values = _order_stats(pixels, [k for lo in los for k in (lo, min(lo + 1, n - 1))])
    out = []
    for index, lo, a, b in zip(indices, los, values[::2], values[1::2]):
        gamma = index - lo
        out.append(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)
    return tuple(out)


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
    r0, r1 = band_rows(SCALE_BAND_MM, raster.ppi)
    r1 = min(raster.height, r1)
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


def _count_light(
    pixels: np.ndarray,
    cut: np.uint8,
    col_counts: np.ndarray,
    row_counts: np.ndarray | None = None,
) -> None:
    """Add the pixels above `cut` in each column (and row) of `pixels` to
    `col_counts` (and `row_counts`), skipping tiles with none."""
    for r, c, tile in _tiles(pixels):
        if tile.max() <= cut:
            continue
        light = tile > cut
        if row_counts is not None:
            row_counts[r : r + light.shape[0]] += np.count_nonzero(light, axis=1)
        col_counts[c : c + light.shape[1]] += light.sum(axis=0, dtype=np.int32)


def _scan_inward(size: int, step: int, count) -> tuple[int, int]:
    """Count spans of `step` lines through `count(start, stop)`, which says
    whether a line of the span qualifies: from the start until one does,
    then from the end back to the lines already counted until one does.
    Returns `(head, tail)`: the lines before `head` and from `tail` on are
    the ones counted. Some line always qualifies: past the contrast check,
    about a tenth of the pixels, and at least one, lie above the cut, so
    the row (and the column) with the most of them holds the one pixel, or
    the thousandth of its length, that a line needs."""
    head = next(i for i in range(0, size, step) if count(i, i + step)) + step
    tail = next((i for i in reversed(range(head, size, step)) if count(i, i + step)), head)
    return head, tail


def find_print_box(raster: GrayRaster, border_mm: float = 0.0) -> tuple[int, int, int, int]:
    """Bounding box (left, top, right, bottom), half-open, of the light
    print region against the dark background, widened by `border_mm` of
    background on each side and clamped at the raster edges (a print flush
    against an edge keeps whatever margin exists there)."""
    if not 0 <= border_mm < np.inf:
        raise DomainError("border must be finite and non-negative")
    pixels = raster.pixels
    if pixels.size == 0:
        raise AnalysisError("no light print region found")
    try:
        threshold = _midway(*_percentiles(pixels, (10.0, 90.0)))
    except AnalysisError:
        if _percentiles(pixels, (50.0,))[0] > 127:  # the median
            return (0, 0, raster.width, raster.height)
        raise AnalysisError("no light print region found") from None
    # an integer pixel exceeds the threshold exactly when it exceeds its floor
    cut = np.uint8(math.floor(threshold))
    height, width = pixels.shape
    min_count_col = max(1, round(0.001 * width))  # light pixels a row needs
    min_count_row = max(1, round(0.001 * height))  # light pixels a column needs
    row_counts = np.zeros(height, dtype=np.intp)
    col_counts = np.zeros(width, dtype=np.intp)

    def count_rows(start: int, stop: int) -> bool:
        _count_light(pixels[start:stop], cut, col_counts, row_counts[start:stop])
        return bool((row_counts[start:stop] >= min_count_col).any())

    top, bottom = _scan_inward(height, max(1, STRIP_PX // width), count_rows)
    # the rows between are counted in column blocks, onto the column counts
    # of the rows scanned so far, so every column count tested is complete
    middle = pixels[top:bottom]

    def count_cols(start: int, stop: int) -> bool:
        _count_light(middle[:, start:stop], cut, col_counts[start:stop])
        return bool((col_counts[start:stop] >= min_count_row).any())

    _scan_inward(width, math.isqrt(STRIP_PX), count_cols)
    # lines not counted in full lie between the first and last that qualify
    rows = np.flatnonzero(row_counts >= min_count_col)
    cols = np.flatnonzero(col_counts >= min_count_row)
    # a margin past the larger side widens the box to the whole raster, so
    # clamping it there keeps a huge border from overflowing round()
    margin = round(min(border_mm * raster.ppi / MM_PER_INCH, max(height, width)))
    return (
        max(0, int(cols[0]) - margin),
        max(0, int(rows[0]) - margin),
        min(raster.width, int(cols[-1]) + 1 + margin),
        min(raster.height, int(rows[-1]) + 1 + margin),
    )


def crop_to_border(raster: GrayRaster, border_mm: float = BORDER_MM) -> GrayRaster:
    """Crop to the print plus a uniform dark border of `border_mm`, as
    `find_print_box` bounds it. The crop is a view: it shares the scan's
    pixels, so writing to either changes both, and it keeps the whole scan
    alive while it lives."""
    left, top, right, bottom = find_print_box(raster, border_mm)
    return GrayRaster(raster.pixels[top:bottom, left:right], raster.ppi)


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
