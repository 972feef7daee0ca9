"""Span recording and garbage-collector accounting for the benchmark.

`GcMeter` counts collections per generation and the seconds they pause
the program, through `gc.callbacks`. `Tracer` runs each operation of a
pass and, when enabled, records one span per wrapped public call: name,
start, end, the enclosing operation's span and the operation id. Spans
live in compact arrays and are written once, when the run ends.

The harness calls every layer directly and no wrapped call runs inside
another, so a layer span has no children and its self time is its
duration. An operation span's self time is the harness's own work
(checks, hashing, JSON) between the layer calls.
"""
from __future__ import annotations

import gc
import sys
import time
import traceback
from array import array

clock = time.perf_counter


class GcMeter:
    """Collections per generation and pause seconds since install."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = clock()
        else:
            self.pause_s += clock() - self._started
            self.collections[info["generation"]] += 1

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def remove(self) -> None:
        gc.callbacks.remove(self._callback)

    def snapshot(self) -> tuple[float, int, int, int]:
        return (self.pause_s, *self.collections)


class LayerStats:
    """Per-name totals of the wrapped calls made in one pass."""

    __slots__ = ("calls", "busy_s", "work", "gc_pause_s", "gc_gen0", "gc_gen1", "gc_gen2")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.work = 0
        self.gc_pause_s = 0.0
        self.gc_gen0 = 0
        self.gc_gen1 = 0
        self.gc_gen2 = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Runs operations and, when `enabled`, records spans around layer calls."""

    def __init__(self, meter: GcMeter) -> None:
        self.meter = meter
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.layers: dict[str, LayerStats] = {}
        self._op_id = -1
        self._op_span = -1
        self._origin = clock()

    def begin_pass(self, enabled: bool) -> None:
        """Start a pass; per-layer totals restart, recorded spans are kept."""
        self.enabled = enabled
        self.layers = {}

    def _open(self, name: str, start: float) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(name_id)
        self.span_op.append(self._op_id)
        self.span_parent.append(self._op_span)
        self.span_start.append(start - self._origin)
        self.span_end.append(start - self._origin)
        return len(self.span_start) - 1

    def run_op(self, name: str, body) -> tuple[bool, float]:
        """Run one operation; returns (passed its checks, wall seconds).

        An exception counts as a failed operation: its traceback goes to
        stderr and the pass goes on.
        """
        self._op_id += 1
        start = clock()
        if self.enabled:
            self._op_span = self._open(f"op.{name}", start)
        try:
            ok = bool(body())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        end = clock()
        if self.enabled:
            self.span_end[self._op_span] = end - self._origin
            self._op_span = -1
        return ok, end - start

    def wrap(self, name: str, fn, work=None):
        """`fn` itself when tracing is off, else `fn` recording a span per call.

        `work(result, args)` gives the call's work count (default 1).
        """
        if not self.enabled:
            return fn
        stats = self.layers.setdefault(name, LayerStats())
        meter = self.meter
        collections = meter.collections
        record = self._record

        def traced(*args, **kwargs):
            pause0 = meter.pause_s
            g0, g1, g2 = collections
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            stats.calls += 1
            stats.busy_s += end - start
            stats.work += 1 if work is None else work(result, args)
            stats.gc_pause_s += meter.pause_s - pause0
            stats.gc_gen0 += collections[0] - g0
            stats.gc_gen1 += collections[1] - g1
            stats.gc_gen2 += collections[2] - g2
            record(name, start, end)
            return result

        return traced

    def _record(self, name: str, start: float, end: float) -> None:
        index = self._open(name, start)
        self.span_end[index] = end - self._origin

    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, path) -> None:
        """Write every recorded span to one uncompressed .npz archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.span_name, dtype=np.int32),
            op_id=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )
