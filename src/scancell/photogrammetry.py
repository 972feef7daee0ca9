"""Optical and sampling arithmetic for scanned aerial contact prints.

Image scale from camera geometry, print resolving power, ground resolved
distance, scanner pixel pitch, and archive storage totals. Lengths carry
explicit units at the API boundary; millimetres are the canonical internal
unit because the source material mixes inches, feet, metres and microns.

All functions are pure and safe for unrestricted concurrent use.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

MM_PER_INCH = 25.4
MM_PER_FOOT = 304.8
MM_PER_METER = 1000.0
UM_PER_MM = 1000.0

DECIMAL_TERABYTE = 10**12
BINARY_TERABYTE = 2**40


def _require_positive(name: str, value: float) -> None:
    # the chained comparison also rejects NaN
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class FocalLength:
    """Camera focal length, stored in millimetres."""

    millimeters: float

    def __post_init__(self) -> None:
        _require_positive("focal length", self.millimeters)

    @classmethod
    def from_inches(cls, inches: float) -> "FocalLength":
        _require_positive("focal length", inches)
        return cls(inches * MM_PER_INCH)


@dataclass(frozen=True)
class FlyingAltitude:
    """Recorded flying altitude, above sea level, stored in metres."""

    meters: float

    def __post_init__(self) -> None:
        _require_positive("flying altitude", self.meters)

    @classmethod
    def from_feet(cls, feet: float) -> "FlyingAltitude":
        _require_positive("flying altitude", feet)
        return cls(feet * MM_PER_FOOT / MM_PER_METER)

    @property
    def millimeters(self) -> float:
        return self.meters * MM_PER_METER


@dataclass(frozen=True)
class ScaleRatio:
    """Map scale, always normalized to 1:denominator."""

    denominator: float

    def __post_init__(self) -> None:
        _require_positive("scale denominator", self.denominator)

    def __str__(self) -> str:
        return f"1:{self.denominator:,.0f}"


@dataclass(frozen=True)
class LinePairResolution:
    """Print resolving power in line pairs per millimetre."""

    lp_per_mm: float

    def __post_init__(self) -> None:
        _require_positive("resolution", self.lp_per_mm)


@dataclass(frozen=True)
class PixelPitch:
    """Sampling pitch in micrometres."""

    micrometers: float

    def __post_init__(self) -> None:
        _require_positive("pixel pitch", self.micrometers)


class SamplingVerdict(enum.Enum):
    OVERSAMPLED = "oversampled"
    WITHIN_OPTIMAL_BAND = "within_optimal_band"
    UNDERSAMPLED = "undersampled"


def scale_from_focal_and_altitude(f: FocalLength, h: FlyingAltitude) -> ScaleRatio:
    """Approximate scale as focal length over altitude, i.e. 1:(H/f).

    The denominator is an upper bound on the true scale denominator: the
    altitude is measured above sea level, not above the local ground.
    """
    return ScaleRatio(h.millimeters / f.millimeters)


def smallest_resolvable_feature(r: LinePairResolution) -> float:
    """Width in micrometres of one line of a resolvable line pair: 1/(2R)."""
    return UM_PER_MM / (2.0 * r.lp_per_mm)


def ground_resolved_distance(r: LinePairResolution, s: ScaleRatio) -> float:
    """Smallest distinguishable ground object in metres.

    The smallest resolvable print feature multiplied by the scale
    denominator.
    """
    feature_um = smallest_resolvable_feature(r)
    return feature_um * 1e-6 * s.denominator


def optimal_pixel_range(r: LinePairResolution) -> tuple[PixelPitch, PixelPitch]:
    """Sampling-theory band for the scanning pixel size.

    Returns (1/(2*sqrt(2)*R), 1/(2R)) in micrometres. The upper edge is the
    Nyquist pitch for the print's line-pair frequency; the band ratio is
    always sqrt(2).
    """
    upper = smallest_resolvable_feature(r)
    return PixelPitch(upper / math.sqrt(2.0)), PixelPitch(upper)


def pixel_pitch_from_ppi(ppi: float) -> PixelPitch:
    """Pixel pitch in micrometres for a scan of `ppi` samples per inch."""
    _require_positive("ppi", ppi)
    return PixelPitch(MM_PER_INCH * UM_PER_MM / ppi)


def sampling_adequacy(ppi: float, r: LinePairResolution) -> SamplingVerdict:
    """Compare a scan's pixel pitch against the optimal band for resolution R.

    Band edges are inclusive. A pitch below the band means the scan holds
    more resolution than the print can supply; above the band it loses
    print detail.
    """
    pitch = pixel_pitch_from_ppi(ppi).micrometers
    lo, hi = optimal_pixel_range(r)
    if pitch < lo.micrometers:
        return SamplingVerdict.OVERSAMPLED
    if pitch > hi.micrometers:
        return SamplingVerdict.UNDERSAMPLED
    return SamplingVerdict.WITHIN_OPTIMAL_BAND


@dataclass(frozen=True)
class StorageEstimate:
    """Total archive size in bytes, reportable in decimal or binary TB."""

    total_bytes: int

    def terabytes(self, binary: bool = False) -> float:
        return self.total_bytes / (BINARY_TERABYTE if binary else DECIMAL_TERABYTE)


def storage_estimate(n_images: int, bytes_per_image: int) -> StorageEstimate:
    """Storage required for `n_images` files of `bytes_per_image` each."""
    if n_images < 0 or bytes_per_image < 0:
        raise DomainError("image count and size must be non-negative")
    return StorageEstimate(int(n_images) * int(bytes_per_image))
