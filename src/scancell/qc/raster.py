"""8-bit grayscale raster with a physical pitch, stored as binary PGM.

The portable graymap (P5) container is used for all raster I/O; the
samples-per-inch figure rides in a header comment (`# ppi 1200`) so files
round-trip bit-exactly with their physical scale.

The float filters take an image as `(rows, row_of)`: `k` distinct rows and
the index of the distinct row behind each image row. `blur_rows` costs
and allocates in proportion to the distinct rows, not the pixels, which
keeps a target render at about one byte per pixel (at most 2 B/px plus
16 MB). A plain 2-D image `image` is `(image, arange(height))`.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from ..errors import AnalysisError, DomainError

_PPI_COMMENT = re.compile(rb"^#\s*ppi\s+(\S.*?)\s*$")


class GrayRaster:
    """Row-major 8-bit intensities (0 black, 255 white) plus pitch."""

    __slots__ = ("pixels", "ppi")

    def __init__(self, pixels: np.ndarray, ppi: float):
        array = np.asarray(pixels)
        if array.ndim != 2:
            raise DomainError(f"raster must be 2-D, got shape {array.shape}")
        if array.dtype != np.uint8:
            raise DomainError(f"raster must be uint8, got {array.dtype}")
        if not 0 < ppi < math.inf:
            raise DomainError(f"ppi must be finite and positive, got {ppi!r}")
        self.pixels = array
        self.ppi = float(ppi)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def pitch_um(self) -> float:
        """Pixel pitch in micrometres."""
        return 25_400.0 / self.ppi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayRaster):
            return NotImplemented
        return self.ppi == other.ppi and np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"GrayRaster({self.width}x{self.height} @ {self.ppi:g} ppi)"

    def to_pgm_bytes(self) -> bytes:
        header = f"P5\n# ppi {self.ppi:g}\n{self.width} {self.height}\n255\n"
        # join reads the array's buffer, so the pixels are copied once
        return b"".join((header.encode("ascii"), np.ascontiguousarray(self.pixels)))

    @classmethod
    def from_pgm_bytes(cls, data: bytes) -> "GrayRaster":
        tokens: list[bytes] = []
        pos = 0
        found_ppi = None
        while len(tokens) < 4:
            if pos >= len(data):
                raise AnalysisError("truncated PGM header")
            ch = data[pos : pos + 1]
            if ch == b"#":
                end = data.find(b"\n", pos)
                if end < 0:
                    raise AnalysisError("unterminated PGM comment")
                match = _PPI_COMMENT.match(data[pos:end])
                if match:
                    found_ppi = match.group(1)
                pos = end + 1
            elif ch.isspace():
                pos += 1
            else:
                end = pos
                while end < len(data) and not data[end : end + 1].isspace():
                    end += 1
                tokens.append(data[pos:end])
                pos = end
        if tokens[0] != b"P5":
            raise AnalysisError(f"not a binary PGM (magic {tokens[0]!r})")
        try:
            width, height, maxval = (int(t) for t in tokens[1:4])
        except ValueError:
            raise AnalysisError(f"PGM size and maxval must be integers: {tokens[1:4]}") from None
        if width < 0 or height < 0:
            raise AnalysisError(f"PGM size must be non-negative, got {width}x{height}")
        if maxval != 255:
            raise AnalysisError(f"only 8-bit graymaps are supported, maxval {maxval}")
        pos += 1  # single whitespace after maxval
        expected = width * height
        if len(data) - pos < expected:
            raise AnalysisError("PGM pixel data shorter than header promises")
        ppi = _comment_ppi(found_ppi)
        pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
        return cls(pixels.reshape(height, width).copy(), ppi)

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_pgm_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "GrayRaster":
        return cls.from_pgm_bytes(Path(path).read_bytes())


def _comment_ppi(text: bytes | None) -> float:
    if text is None:
        raise AnalysisError('PGM carries no "# ppi N" header comment; add one after the P5 line')
    try:
        ppi = float(text)
    except ValueError:
        ppi = math.nan
    if not 0 < ppi < math.inf:
        raise AnalysisError(
            "PGM ppi comment must be a finite positive number, "
            f"got {text.decode(errors='backslashreplace')!r}"
        )
    return ppi


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
    radius = max(1, int(np.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    rows = _convolve_rows(rows, kernel)
    taps = np.clip(np.arange(len(row_of))[:, None] + offsets, 0, len(row_of) - 1)
    windows, window_of = np.unique(row_of[taps], axis=0, return_inverse=True)
    out = np.zeros((len(windows), rows.shape[1]), dtype=np.float64)
    for i, weight in enumerate(kernel):
        out += weight * rows[windows[:, i]]
    return out, window_of.reshape(-1)


def _convolve_rows(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    radius = len(kernel) // 2
    padded = np.pad(image, [(0, 0), (radius, radius)], mode="edge")
    out = np.zeros_like(image, dtype=np.float64)
    for i, weight in enumerate(kernel):
        out += weight * padded[:, i : i + image.shape[1]]
    return out


def add_noise(image: np.ndarray, sigma: float, seed: int | np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise on a float image.

    Given a `Generator` as `seed`, draws continue its stream, so noise added
    strip by strip from one generator equals noise added to the whole image.
    """
    if sigma <= 0:
        return image
    rng = np.random.default_rng(seed)
    return image + rng.normal(0.0, sigma, size=image.shape)


def quantize(image: np.ndarray) -> np.ndarray:
    """Round and clip a float image to uint8."""
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)
