"""Synthetic calibration targets and scan mock-ups.

Ground-truth generator for the analyzer: a 250 x 25 mm strip carrying a
6-inch measure scale with inch ticks, a resolution target of bar groups in
a descending geometric series, and a 21-segment tonal step wedge with
equal intensity steps over 0..255.

Generator conventions (the analyzer never assumes them, only the tests
do):

- the strip background is white; ticks and bars are black; wedge segment
  k is round(255*k/20), dark to light;
- each sensor pixel integrates exactly over its own footprint (area
  coverage), then an optical point-spread of sigma 0.65 px is applied;
  both model the scanner, not an injected distortion;
- resolution bars carry an alternating phase offset of +/-0.30 px, the
  worst-case registration between bar grid and pixel raster, so that
  line widths below about twice the pixel pitch stop being countable;
- an injected scale error stretches all horizontal positions, matching a
  carriage-speed miscalibration; injected blur and noise are applied
  after the optics, then the image quantizes to 8 bits.

The float filters take an image as `(rows, row_of)`: `k` distinct rows and
the index of the distinct row behind each image row. A plain 2-D image
`image` is `(image, arange(height))`. Before quantizing, the target has
three distinct rows (white, the scale band, the element band), so
`render_target` draws those rows only, `blur_rows` costs and allocates in
proportion to the distinct rows, not the pixels, and the rows expand to
the full image only as 8-bit pixels. Noise is drawn, added, rounded and
clipped in one float buffer of a strip of `STRIP_PX` pixels, the
analyzer's strip size, reused by every strip, on the caller's thread
alone: nearly all of a noisy render is the generator's normal draws,
which come from one stream in order and which no second CPU can share.
A render therefore needs about one byte per pixel, at most 2 B/px plus
16 MB, and the `MAX_RASTER_PIXELS` guard of 300 Mpx bounds it to about
300 MB. The vertical pass of the injected blur costs windows x taps x
width multiply-adds, and nearly every row is its own window once the
blur is wide, so a blur whose pass could take more than `MAX_BLUR_WORK`
is refused before it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .raster import STRIP_PX, GrayRaster, check_ppi

SENSOR_SIGMA_PX = 0.65
BAR_JITTER_PX = 0.30
MAX_RASTER_PIXELS = 300_000_000
MAX_BLUR_WORK = 1 << 28  # multiply-adds of a render's vertical blur pass: windows x taps x width

# the strip, its measure scale and its step wedge
TARGET_WIDTH_MM = 250.0
TARGET_HEIGHT_MM = 25.0
MEASURE_SCALE_INCHES = 6
WEDGE_SEGMENTS = 21

# strip layout anchors, millimetres
SCALE_TICK_X0_MM = 12.0
SCALE_TICK_WIDTH_MM = 0.3
SCALE_BAND_MM = (4.0, 10.0)
ELEMENT_BAND_MM = (14.0, 22.0)
GROUPS_X0_MM = 6.0
GROUP_SPACING_MM = 2.0
WEDGE_GAP_MM = 6.0
WEDGE_X1_MM = 244.0
MM_PER_INCH = 25.4

# print scan mock-up: a 9-inch print on the scan bed, as 8-bit levels
PRINT_SIZE_MM = (228.6, 228.6)
BACKGROUND_LEVEL = 8
PRINT_LEVEL = 200


@dataclass(frozen=True)
class ResolutionGroup:
    line_width_um: float
    bar_count: int

    def __post_init__(self) -> None:
        if self.line_width_um <= 0:
            raise DomainError("line width must be positive")
        if self.bar_count < 2:
            raise DomainError("a group needs at least two bars")


@dataclass(frozen=True)
class CalibrationGeometry:
    """The resolution groups of a calibration target; the strip, its
    measure scale and its step wedge are fixed (the module constants)."""

    groups: tuple[ResolutionGroup, ...] = ()

    def __post_init__(self) -> None:
        widths = [g.line_width_um for g in self.groups]
        if any(a <= b for a, b in zip(widths, widths[1:])):
            raise DomainError("group line widths must be strictly decreasing")


def default_geometry() -> CalibrationGeometry:
    """Standard target: groups from 500 um down to 10 um, ratio 2^(1/6)."""
    ratio = 2.0 ** (-1.0 / 6.0)
    widths = []
    w = 500.0
    while w >= 10.0:
        widths.append(w)
        w *= ratio
    groups = tuple(ResolutionGroup(width, 5) for width in widths)
    return CalibrationGeometry(groups=groups)


@dataclass(frozen=True)
class Distortions:
    """Injected defects; all default to none."""

    scale_error_fraction: float = 0.0
    noise_sigma: float = 0.0
    blur_radius_px: float = 0.0

    def __post_init__(self) -> None:
        values = (self.scale_error_fraction, self.noise_sigma, self.blur_radius_px)
        if not all(map(math.isfinite, values)):
            raise DomainError("scale error, noise and blur must be finite")
        if self.noise_sigma < 0 or self.blur_radius_px < 0:
            raise DomainError("noise and blur must be non-negative")
        if self.scale_error_fraction <= -1.0:
            raise DomainError("scale error must exceed -100%")


NO_DISTORTIONS = Distortions()


def _pixel_size(size_mm: tuple[float, float], ppi: float) -> tuple[int, int]:
    """`size_mm` in whole pixels at a valid `ppi`. A side of more pixels
    than an array can index raises DomainError, so every position derived
    from it stays finite."""
    px = ppi / MM_PER_INCH
    sides = [side * px for side in size_mm]
    if max(sides) >= np.iinfo(np.intp).max:
        raise DomainError(
            f"{size_mm[0]:g} x {size_mm[1]:g} mm at {ppi:g} ppi has more pixels "
            "on a side than an array can hold"
        )
    return round(sides[0]), round(sides[1])


def band_rows(band_mm: tuple[float, float], ppi: float) -> tuple[int, int]:
    """The rows `[start, stop)` of a band `band_mm` from the strip's top edge."""
    px = ppi / MM_PER_INCH
    return round(band_mm[0] * px), round(band_mm[1] * px)


def _check_raster(what: str, ppi: float, width: int, height: int) -> None:
    """Refuse a raster of no pixels, or of more than `MAX_RASTER_PIXELS`."""
    if width < 1 or height < 1:
        raise DomainError(f"{what} at {ppi} ppi rounds to {width}x{height} px")
    if width * height > MAX_RASTER_PIXELS:
        raise DomainError(
            f"{what} at {ppi} ppi needs {width}x{height} px, beyond the raster limit"
        )


@dataclass(frozen=True)
class GroupBox:
    group: ResolutionGroup
    x0_px: float  # left edge of the first bar, undistorted
    x1_px: float  # right edge of the last bar, undistorted


@dataclass(frozen=True)
class TargetLayout:
    """Undistorted pixel positions of every target element."""

    width_px: int
    height_px: int
    scale_tick_centers_px: tuple[float, ...]
    scale_band_rows: tuple[int, int]
    element_band_rows: tuple[int, int]
    group_boxes: tuple[GroupBox, ...]
    wedge_segment_edges_px: tuple[float, ...]
    wedge_first_centroid: tuple[int, int]  # (x, y)
    wedge_last_centroid: tuple[int, int]

    @classmethod
    def compute(cls, geom: CalibrationGeometry, ppi: float) -> "TargetLayout":
        check_ppi(ppi)
        width_px, height_px = _pixel_size((TARGET_WIDTH_MM, TARGET_HEIGHT_MM), ppi)
        px = ppi / MM_PER_INCH  # px per mm
        ticks = tuple(
            (SCALE_TICK_X0_MM + i * MM_PER_INCH) * px for i in range(MEASURE_SCALE_INCHES + 1)
        )

        boxes = []
        x_mm = GROUPS_X0_MM
        for group in geom.groups:
            w_mm = group.line_width_um / 1000.0
            width_mm = (2 * group.bar_count - 1) * w_mm
            boxes.append(GroupBox(group, x_mm * px, (x_mm + width_mm) * px))
            x_mm += width_mm + GROUP_SPACING_MM

        wedge_x0_mm = x_mm + WEDGE_GAP_MM - GROUP_SPACING_MM
        if wedge_x0_mm >= WEDGE_X1_MM:
            raise DomainError("resolution groups leave no room for the step wedge")
        # plain floats, so that a scale error past the float range stretches
        # them to infinity without numpy's overflow warning
        edges = tuple(
            np.linspace(wedge_x0_mm * px, WEDGE_X1_MM * px, WEDGE_SEGMENTS + 1).tolist()
        )
        mid_y = round((ELEMENT_BAND_MM[0] + ELEMENT_BAND_MM[1]) / 2.0 * px)
        first = (round((edges[0] + edges[1]) / 2.0), mid_y)
        last = (round((edges[-2] + edges[-1]) / 2.0), mid_y)
        return cls(
            width_px=width_px,
            height_px=height_px,
            scale_tick_centers_px=ticks,
            scale_band_rows=band_rows(SCALE_BAND_MM, ppi),
            element_band_rows=band_rows(ELEMENT_BAND_MM, ppi),
            group_boxes=tuple(boxes),
            wedge_segment_edges_px=edges,
            wedge_first_centroid=first,
            wedge_last_centroid=last,
        )


def _coverage(a: float, b: float, size: int) -> tuple[int, np.ndarray]:
    """Per-cell overlap of the interval [a, b) with unit cells of an axis.
    The ends are clamped to the axis before they become cell indices, so an
    end that a huge scale error stretched to infinity covers nothing."""
    lo = math.floor(min(max(a, 0.0), size))
    hi = math.ceil(min(max(b, 0.0), size))
    if hi <= lo:
        return lo, np.zeros(0)
    idx = np.arange(lo, hi, dtype=np.float64)
    cov = np.minimum(b, idx + 1.0) - np.maximum(a, idx)
    return lo, np.clip(cov, 0.0, 1.0)


def _fill_span(row: np.ndarray, x0: float, x1: float, value: float) -> None:
    cx, xcov = _coverage(x0, x1, row.size)
    region = row[cx : cx + xcov.size]
    region *= 1.0 - xcov
    region += value * xcov


def wedge_level(segment: int) -> int:
    """Generator intensity of wedge segment `segment` (0..20)."""
    return round(255.0 * segment / 20.0)


def render_target(
    geom: CalibrationGeometry,
    ppi: float,
    distortions: Distortions = NO_DISTORTIONS,
    seed: int = 0,
) -> GrayRaster:
    """Render the calibration target at `ppi`; deterministic given `seed`."""
    layout = TargetLayout.compute(geom, ppi)
    _check_raster("geometry", ppi, layout.width_px, layout.height_px)
    blur_sigma = distortions.blur_radius_px / 2.0
    if 3.0 * blur_sigma > layout.width_px:  # `blur_rows` truncates its kernel at 3 sigma
        raise DomainError(
            f"blur of {distortions.blur_radius_px:g} px needs a kernel radius beyond "
            f"the target's width of {layout.width_px} px"
        )
    px = ppi / MM_PER_INCH
    stretch = 1.0 + distortions.scale_error_fraction
    # exact only because both bands have whole-pixel row bounds and every
    # element spans its band's full height
    rows = np.full((3, layout.width_px), 255.0, dtype=np.float64)
    _, scale_row, element_row = rows
    row_of = np.zeros(layout.height_px, dtype=np.intp)
    row_of[slice(*layout.scale_band_rows)] = 1
    row_of[slice(*layout.element_band_rows)] = 2

    tick_half = SCALE_TICK_WIDTH_MM * px / 2.0
    for center in layout.scale_tick_centers_px:
        _fill_span(scale_row, center * stretch - tick_half, center * stretch + tick_half, 0.0)

    bar_index = 0
    for box in layout.group_boxes:
        w_px = box.group.line_width_um / 1000.0 * px
        for j in range(box.group.bar_count):
            jitter = BAR_JITTER_PX if bar_index % 2 else -BAR_JITTER_PX
            left = (box.x0_px + j * 2.0 * w_px) * stretch + jitter
            _fill_span(element_row, left, left + w_px, 0.0)
            bar_index += 1

    edges = layout.wedge_segment_edges_px
    for k in range(WEDGE_SEGMENTS):
        _fill_span(element_row, edges[k] * stretch, edges[k + 1] * stretch, float(wedge_level(k)))

    rows, row_of = blur_rows(rows, row_of, SENSOR_SIGMA_PX)
    work = blur_work(row_of, layout.width_px, blur_sigma)
    if work > MAX_BLUR_WORK:
        raise DomainError(
            f"blur of {distortions.blur_radius_px:g} px at {ppi:g} ppi takes up to {work:,} "
            f"multiply-adds, beyond the blur budget of {MAX_BLUR_WORK:,}"
        )
    rows, row_of = blur_rows(rows, row_of, blur_sigma)
    return GrayRaster(_quantize_rows(rows, row_of, distortions.noise_sigma, seed), ppi)


def _quantize_rows(
    rows: np.ndarray, row_of: np.ndarray, noise_sigma: float, seed: int
) -> np.ndarray:
    """The 8-bit image `rows[row_of]`, with noise added strip by strip in
    one reused strip buffer: each run of one distinct row within a strip
    has its noise drawn there, its row added, and is then quantized in
    place, as `quantize` does. The one generator draws run after run, as
    `add_noise` would over the whole image."""
    if noise_sigma <= 0:
        return quantize(rows)[row_of]
    rng = np.random.default_rng(seed)
    height, width = row_of.size, rows.shape[1]
    out = np.empty((height, width), dtype=np.uint8)
    step = max(1, STRIP_PX // width)
    strip = np.empty((min(step, height), width))
    cuts = sorted({*range(0, height, step), *(np.flatnonzero(np.diff(row_of)) + 1).tolist()})
    for a, b in zip(cuts, [*cuts[1:], height]):
        noisy = add_noise(rows[row_of[a]], noise_sigma, rng, out=strip[: b - a])
        out[a:b] = np.clip(np.rint(noisy, out=noisy), 0, 255, out=noisy)
    return out


def blur_rows(
    rows: np.ndarray, row_of: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Separable Gaussian blur, kernel truncated at 3 sigma, of the float
    image `rows[row_of]`, returned in the same form.

    The horizontal pass runs once per distinct row, the vertical pass once
    per distinct window of source rows, so an image of a few distinct rows
    costs a few rows. Tap order and edge clamping are those of a full-image
    pass, so `rows[row_of]` is bit-identical to blurring the full image.
    """
    if sigma <= 0:
        return rows, row_of
    radius = _kernel_radius(sigma)
    offsets = np.arange(-radius, radius + 1)
    with np.errstate(over="ignore"):  # the outer taps of a tiny sigma are exactly 0
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    rows = _convolve_rows(rows, kernel)
    taps = np.clip(np.arange(len(row_of))[:, None] + offsets, 0, len(row_of) - 1)
    windows, window_of = np.unique(row_of[taps], axis=0, return_inverse=True)
    out = np.zeros((len(windows), rows.shape[1]), dtype=np.float64)
    for i, weight in enumerate(kernel):
        out += weight * rows[windows[:, i]]
    return out, window_of.reshape(-1)


def _kernel_radius(sigma: float) -> int:
    return max(1, int(np.ceil(3.0 * sigma)))


def blur_work(row_of: np.ndarray, width: int, sigma: float) -> int:
    """An upper bound on the multiply-adds of the vertical pass of
    `blur_rows(rows, row_of, sigma)` over rows of `width` pixels, its
    windows x taps x width, found without building a window: windows `i`
    and `i + 1` differ only where `row_of` changes at a `j` with
    `i - radius < j <= i + radius + 1`, so each change adds at most
    `2 * radius + 1` windows."""
    if sigma <= 0:
        return 0
    radius = _kernel_radius(sigma)
    last = len(row_of) - 1  # the window pairs (i, i + 1) have i < last
    changes = np.flatnonzero(np.diff(row_of)) + 1
    # the pairs each change can split, as sorted half-open spans of i
    starts = np.clip(changes - radius - 1, 0, last)
    stops = np.clip(changes + radius, 0, last)
    split = np.maximum(stops - np.maximum(starts, np.concatenate(([0], stops[:-1]))), 0)
    return (1 + int(split.sum())) * (2 * radius + 1) * width


def _convolve_rows(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    radius = len(kernel) // 2
    padded = np.pad(image, [(0, 0), (radius, radius)], mode="edge")
    out = np.zeros_like(image, dtype=np.float64)
    for i, weight in enumerate(kernel):
        out += weight * padded[:, i : i + image.shape[1]]
    return out


def add_noise(
    image: np.ndarray, sigma: float, seed: int | np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Additive Gaussian noise on a float image, returned as a new array,
    or written into `out` (a float64 array that `image` broadcasts to) when
    one is given.

    The noise `sigma * z` of standard normal draws `z` equals
    `Generator.normal(0, sigma)`, which is `0 + sigma * z`, bit for bit.
    Given a `Generator` as `seed`, draws continue its stream, so noise added
    strip by strip from one generator equals noise added to the whole image.
    """
    if out is None:
        out = np.empty(image.shape)
    np.random.default_rng(seed).standard_normal(out=out)
    with np.errstate(over="ignore"):  # a huge sigma saturates the pixels at 0 and 255
        out *= sigma
    out += image
    return out


def quantize(image: np.ndarray) -> np.ndarray:
    """Round and clip a float image to uint8."""
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)


def render_print_scan(
    ppi: float, scan_area_mm: tuple[float, float] = (340.0, 315.0)
) -> GrayRaster:
    """Mock scan: a light print centered on the dark scan-bed background."""
    check_ppi(ppi)
    if not all(0 < side < math.inf for side in scan_area_mm):
        raise DomainError(f"scan area must be finite and positive, got {scan_area_mm!r}")
    if PRINT_SIZE_MM[0] > scan_area_mm[0] or PRINT_SIZE_MM[1] > scan_area_mm[1]:
        raise DomainError("print does not fit in the scan area")
    width, height = _pixel_size(scan_area_mm, ppi)
    _check_raster("scan area", ppi, width, height)
    canvas = np.full((height, width), BACKGROUND_LEVEL, dtype=np.uint8)
    pw, ph = _pixel_size(PRINT_SIZE_MM, ppi)
    x0 = (width - pw) // 2
    y0 = (height - ph) // 2
    canvas[y0 : y0 + ph, x0 : x0 + pw] = PRINT_LEVEL
    return GrayRaster(canvas, ppi)
