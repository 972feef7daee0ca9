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

Before quantizing, the target has three distinct rows (white, the scale
band, the element band), so `render_target` draws and blurs those rows
only and expands them to the full image as 8-bit pixels, adding noise in
strips of `NOISE_STRIP_PIXELS`. A render therefore needs about one byte
per pixel, at most 2 B/px plus 16 MB, and the `MAX_RASTER_PIXELS` guard
of 300 Mpx bounds it to about 300 MB.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .raster import GrayRaster, add_noise, blur_rows, quantize

SENSOR_SIGMA_PX = 0.65
BAR_JITTER_PX = 0.30
MAX_RASTER_PIXELS = 300_000_000
# pixels per strip of a noisy render: bounds its float64 temporaries to a few MB
NOISE_STRIP_PIXELS = 1 << 18

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

    @property
    def expected_scale_px(self) -> float:
        return self.scale_tick_centers_px[-1] - self.scale_tick_centers_px[0]

    @classmethod
    def compute(cls, geom: CalibrationGeometry, ppi: float) -> "TargetLayout":
        if not 0 < ppi < math.inf:
            raise DomainError(f"ppi must be finite and positive, got {ppi!r}")
        px = ppi / MM_PER_INCH  # px per mm
        width_px = round(TARGET_WIDTH_MM * px)
        height_px = round(TARGET_HEIGHT_MM * px)
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
        edges = tuple(
            np.linspace(wedge_x0_mm * px, WEDGE_X1_MM * px, WEDGE_SEGMENTS + 1)
        )
        mid_y = round((ELEMENT_BAND_MM[0] + ELEMENT_BAND_MM[1]) / 2.0 * px)
        first = (round((edges[0] + edges[1]) / 2.0), mid_y)
        last = (round((edges[-2] + edges[-1]) / 2.0), mid_y)
        return cls(
            width_px=width_px,
            height_px=height_px,
            scale_tick_centers_px=ticks,
            scale_band_rows=(round(SCALE_BAND_MM[0] * px), round(SCALE_BAND_MM[1] * px)),
            element_band_rows=(
                round(ELEMENT_BAND_MM[0] * px),
                round(ELEMENT_BAND_MM[1] * px),
            ),
            group_boxes=tuple(boxes),
            wedge_segment_edges_px=edges,
            wedge_first_centroid=first,
            wedge_last_centroid=last,
        )


def _coverage(a: float, b: float, size: int) -> tuple[int, np.ndarray]:
    """Per-cell overlap of the interval [a, b) with unit cells of an axis."""
    lo = max(0, int(math.floor(a)))
    hi = min(size, int(math.ceil(b)))
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
    if layout.width_px < 1 or layout.height_px < 1:
        raise DomainError(
            f"geometry at {ppi} ppi rounds to {layout.width_px}x{layout.height_px} px"
        )
    if layout.width_px * layout.height_px > MAX_RASTER_PIXELS:
        raise DomainError(
            f"geometry at {ppi} ppi needs {layout.width_px}x{layout.height_px} px, "
            "beyond the raster limit"
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
    if distortions.blur_radius_px > 0:
        rows, row_of = blur_rows(rows, row_of, distortions.blur_radius_px / 2.0)
    return GrayRaster(_quantize_rows(rows, row_of, distortions.noise_sigma, seed), ppi)


def _quantize_rows(
    rows: np.ndarray, row_of: np.ndarray, noise_sigma: float, seed: int
) -> np.ndarray:
    """The 8-bit image `rows[row_of]`, with noise added strip by strip."""
    if noise_sigma <= 0:
        return quantize(rows)[row_of]
    rng = np.random.default_rng(seed)
    out = np.empty((row_of.size, rows.shape[1]), dtype=np.uint8)
    step = max(1, NOISE_STRIP_PIXELS // rows.shape[1])
    for y in range(0, row_of.size, step):
        out[y : y + step] = quantize(add_noise(rows[row_of[y : y + step]], noise_sigma, rng))
    return out


def render_print_scan(
    ppi: float, scan_area_mm: tuple[float, float] = (340.0, 315.0)
) -> GrayRaster:
    """Mock scan: a light print centered on the dark scan-bed background."""
    if PRINT_SIZE_MM[0] > scan_area_mm[0] or PRINT_SIZE_MM[1] > scan_area_mm[1]:
        raise DomainError("print does not fit in the scan area")
    px = ppi / MM_PER_INCH
    width = round(scan_area_mm[0] * px)
    height = round(scan_area_mm[1] * px)
    if width * height > MAX_RASTER_PIXELS:
        raise DomainError("scan area too large at this ppi")
    canvas = np.full((height, width), BACKGROUND_LEVEL, dtype=np.uint8)
    pw = round(PRINT_SIZE_MM[0] * px)
    ph = round(PRINT_SIZE_MM[1] * px)
    x0 = (width - pw) // 2
    y0 = (height - ph) // 2
    canvas[y0 : y0 + ph, x0 : x0 + pw] = PRINT_LEVEL
    return GrayRaster(canvas, ppi)
