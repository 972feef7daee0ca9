"""8-bit grayscale raster with a physical pitch, stored as binary PGM.

The portable graymap (P5) container is used for all raster I/O; the
samples-per-inch figure rides in a header comment (`# ppi 1200`) so files
round-trip bit-exactly with their physical scale. The float image a
render builds before it quantizes to a raster lives in `target`.
"""
from __future__ import annotations

import io
import math
import re
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..errors import AnalysisError, DomainError

_PPI_COMMENT = re.compile(rb"^#\s*ppi\s+(\S.*?)\s*$")
STRIP_PX = 1 << 18  # pixels per strip of an analysis or noisy-render pass, bounding its temporaries


def check_ppi(ppi: float) -> None:
    if not 0 < ppi < math.inf:
        raise DomainError(f"ppi must be finite and positive, got {ppi!r}")


class GrayRaster:
    """Row-major 8-bit intensities (0 black, 255 white) plus pitch."""

    __slots__ = ("pixels", "ppi")

    def __init__(self, pixels: np.ndarray, ppi: float):
        array = np.asarray(pixels)
        if array.ndim != 2:
            raise DomainError(f"raster must be 2-D, got shape {array.shape}")
        if array.dtype != np.uint8:
            raise DomainError(f"raster must be uint8, got {array.dtype}")
        check_ppi(ppi)
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

    def pgm_pieces(self) -> Iterator[bytes | np.ndarray]:
        """The binary PGM as buffers to write in order: the header, then the
        pixels, whole when they are C-contiguous, else row by row (each row
        of a crop is contiguous), so no contiguous copy of them is made."""
        yield f"P5\n# ppi {self.ppi:g}\n{self.width} {self.height}\n255\n".encode("ascii")
        if self.pixels.flags.c_contiguous:
            yield self.pixels
        else:
            yield from map(np.ascontiguousarray, self.pixels)

    def to_pgm_bytes(self) -> bytes:
        # join reads each piece's buffer, so the pixels are copied once
        return b"".join(self.pgm_pieces())

    @classmethod
    def from_pgm_bytes(cls, data: bytes) -> "GrayRaster":
        return cls._read_pgm(io.BytesIO(data))

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as out:
            out.writelines(self.pgm_pieces())

    @classmethod
    def load(cls, path: str | Path) -> "GrayRaster":
        with open(path, "rb") as stream:
            if not stream.seekable():  # a pipe's length is known only once it is read
                return cls.from_pgm_bytes(stream.read())
            return cls._read_pgm(stream)

    @classmethod
    def _read_pgm(cls, stream: BinaryIO) -> "GrayRaster":
        """Parse a P5 header from a seekable stream, then read the pixels
        straight into the raster, so the encoded pixels are never held."""
        tokens: list[bytes] = []
        found_ppi = None
        ch = stream.read(1)
        while len(tokens) < 4:
            if not ch:
                raise AnalysisError("truncated PGM header")
            if ch == b"#":
                line = stream.readline()
                if not line.endswith(b"\n"):
                    raise AnalysisError("unterminated PGM comment")
                match = _PPI_COMMENT.match(b"#" + line[:-1])
                if match:
                    found_ppi = match.group(1)
                ch = stream.read(1)
            elif ch.isspace():
                ch = stream.read(1)
            else:
                token = bytearray()
                while ch and not ch.isspace():
                    token += ch
                    ch = stream.read(1)
                tokens.append(bytes(token))
        # `ch` is the single whitespace after maxval, or empty at the end of data
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
        expected = width * height
        start = stream.tell()
        if not ch or stream.seek(0, io.SEEK_END) - start < expected:
            raise AnalysisError("PGM pixel data shorter than header promises")
        ppi = _comment_ppi(found_ppi)
        stream.seek(start)
        pixels = np.empty((height, width), dtype=np.uint8)
        stream.readinto(pixels)
        return cls(pixels, ppi)


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

