"""8-bit grayscale raster with a physical pitch, stored as binary PGM.

The portable graymap (P5) container is used for all raster I/O; the
samples-per-inch figure rides in a header comment (`# ppi 1200`) so files
round-trip bit-exactly with their physical scale. The float image a
render builds before it quantizes to a raster lives in `target`.

The strip passes of `analyze` and raster equality run on the CPUs this
process may use: `in_parts` splits a pass's strips, tiles or column
blocks into at most `WORKERS` contiguous parts and runs them at once, on
the caller and on a thread pool made on first use. numpy releases the
interpreter lock inside each strip's work. Each part holds its own
temporaries of at most one strip of `STRIP_PX` pixels, so a pass's are
bounded per worker, and its results are combined in strip order, by
integer sums or per-column results, so every output is the same bit for
bit on any number of CPUs. With one usable CPU, nothing goes to a pool.
A render starts no thread: its noise comes from one generator's stream,
drawn in order on the caller. Equality compares a strip of rows at a
time and never builds a full-size boolean array.
"""
from __future__ import annotations

import io
import math
import os
import re
from functools import cache
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from ..errors import AnalysisError, DomainError

_PPI_COMMENT = re.compile(rb"^#\s*ppi\s+(\S.*?)\s*$")
STRIP_PX = 1 << 18  # pixels per strip of an analysis or noisy-render pass, bounding its temporaries
# the CPUs this process may run on, the most parts a strip pass is split into
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def _pool(pid: int):
    """The thread pool of process `pid`: a forked child makes its own, as
    the parent's threads do not run in it."""
    # imported with the first pool, so importing the package starts nothing
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="scancell-strips")


def in_parts(work: Callable[[Sequence], object], items: Sequence) -> list:
    """`work` of each of at most `WORKERS` contiguous parts of `items`, in
    order: the first part on the caller, the others at once on a thread
    pool. Every part is done when it returns, also when `work` raises, so
    the parts may write to what the caller holds, each to its own share."""
    count = max(1, min(WORKERS, len(items)))
    bounds = [len(items) * i // count for i in range(count + 1)]
    parts = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    futures = [_pool(os.getpid()).submit(work, part) for part in parts[1:]]
    try:
        first = work(parts[0])
    finally:
        rest = [future.result() for future in futures]
    return [first, *rest]


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
        if self.ppi != other.ppi or self.pixels.shape != other.pixels.shape:
            return False
        rows = max(1, STRIP_PX // max(1, self.width))

        def same(starts: range) -> bool:
            return all(
                np.array_equal(self.pixels[r : r + rows], other.pixels[r : r + rows]) for r in starts
            )

        return all(in_parts(same, range(0, self.height, rows)))

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

