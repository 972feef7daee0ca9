"""Host-speed reference that the benchmark's timed metrics are scaled by.

The shared hosts this benchmark runs on change speed by 1.4-1.8x for
seconds to minutes at a time, so wall seconds measured a few minutes
apart are not comparable. `Reference` times a fixed slice of work
interleaved with the work being measured: a SIGALRM timer runs one
slice every `PERIOD_S` of wall time, between bytecodes of whatever the
main thread is running, and a short burst of slices runs right before
and after. Measured seconds are then rescaled to "reference seconds",
the seconds the same work would take on a host where one slice takes
its nominal time:

    reference seconds = (wall seconds - slice seconds) * nominal slice / mean slice

A slice runs no scancell code, so a change to scancell moves reference
seconds exactly as it moves wall seconds, while a slower or faster host
moves both the wall seconds and the mean slice. Each workload names the
kind of slice whose speed follows its own (see `SLICES`); the
interleaved slices take under 1 % of the measured time and are
subtracted from it.
"""
from __future__ import annotations

import gc
import heapq
import mmap
import random
import signal
import time

clock = time.perf_counter

PERIOD_S = 0.1
BURST = 10
_KEYS = tuple(f"k{i}" for i in range(512))
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_FRESH_PAGES = 128


class _Event:
    __slots__ = ("at", "kind", "count")

    def __init__(self, at: float, kind: str, count: int) -> None:
        self.at = at
        self.kind = kind
        self.count = count


def _lookups() -> int:
    acc = 0
    for _ in range(4):
        for key in _KEYS:
            acc ^= _TABLE[key] & 255
    return acc


def _events() -> float:
    rng = random.Random(7)
    heap = []
    for i in range(150):
        heapq.heappush(heap, (rng.random(), i, _Event(i * 0.5, "scan", i)))
    total = 0.0
    while heap:
        at, _, event = heapq.heappop(heap)
        total += event.at + at
    return total


def _strings() -> int:
    table = {}
    rows = []
    for i in range(120):
        key = f"r{i:05d}/{i * 7 % 13}"
        table[key] = (i, key)
        rows.append((i * 37 % 101, key))
    rows.sort()
    return len(",".join(key for _, key in rows)) + len(table)


def _python_slice() -> None:
    """A tight dict-lookup loop, a small event heap of slotted objects
    with a seeded random source, and string formatting, dict inserts and
    a sort. It frees all it allocates and pauses the cyclic collector, so
    the measured program's collections happen when they would anyway."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _lookups()
        _events()
        _strings()
    finally:
        if collecting:
            gc.enable()


def _pages_slice() -> None:
    """Map fresh anonymous pages and write one byte to each: the kernel's
    page-fault and zeroing path that large numpy arrays go through."""
    size = _FRESH_PAGES * mmap.PAGESIZE
    with mmap.mmap(-1, size) as area:
        for offset in range(0, size, mmap.PAGESIZE):
            area[offset] = 1


# kind -> (slice, its nominal seconds on the 2-vCPU Xeon VM the
# benchmark was written on). "python" follows pure-Python workloads (the
# time of cell-sweep, cell-long and intake passes rises with it at a
# log-log slope of 0.93-1.05); "pages" follows qc-ppi, which spends about
# 40 % of a pass in the kernel faulting in raster pages and rises with the
# "python" slice at a slope of only 0.6-0.7, but with "pages" at 0.99.
SLICES = {
    "python": (_python_slice, 5e-4),
    "pages": (_pages_slice, 5e-4),
}


class Reference:
    """Times a block of work in wall seconds and in reference seconds.

    `with reference:` runs a burst of slices, arms the timer and starts
    the clock; on exit it stops the clock, disarms the timer and runs
    another burst. `wall_s` is then the block's wall time minus the
    slices the timer ran inside it, and `reference_s` the same time in
    reference seconds.
    """

    def __init__(self, kind: str) -> None:
        self._slice, self._nominal_s = SLICES[kind]
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._slice_s = 0.0
        self._slices = 0
        self._in_block_s = 0.0
        self._start = 0.0
        self._previous = None

    def _run(self) -> float:
        start = clock()
        self._slice()
        spent = clock() - start
        self._slice_s += spent
        self._slices += 1
        return spent

    def _burst(self) -> None:
        for _ in range(BURST):
            self._run()

    def _on_alarm(self, signum, frame) -> None:
        self._in_block_s += self._run()

    def __enter__(self) -> "Reference":
        self._slice_s = self._in_block_s = 0.0
        self._slices = 0
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = clock()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = clock() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()
        self.wall_s = elapsed - self._in_block_s
        self.reference_s = self.wall_s * self._nominal_s * self._slices / self._slice_s
