"""Types shared by the benchmark's workload modules."""
from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class PassResult:
    """What one pass of a workload produced, minus the large outputs.

    `ops` holds (name, wall seconds, passed) per operation. `timers` are
    named sub-intervals in seconds, `work` counts what the pass processed
    and `stats` holds exact output values for diffing two commits.
    """

    ops: list[tuple[str, float, bool]] = field(default_factory=list)
    timers: dict[str, float] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)

    def run_op(self, tracer, name: str, body: Callable[[], bool]) -> None:
        """Run one operation through `tracer` and record its outcome."""
        ok, wall = tracer.run_op(name, body)
        self.ops.append((name, wall, ok))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (BENCHMARK.json says why each was chosen).

    `build(seed, scale)` makes the inputs; `layers(tracer)` binds the
    public calls the workload makes, wrapped by the tracer; `run_pass`
    runs one closed-loop pass; `summarize(passes, pass_s)` gives the
    workload's own end-to-end metrics as name -> (value, unit).
    `reference` names the kind of host-speed reference slice
    (reference.SLICES) its times are scaled by.
    """

    build: Callable
    layers: Callable
    run_pass: Callable
    summarize: Callable
    reference: str


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def median_of(passes: list[PassResult], key: str) -> float | None:
    """Median over passes of one timer; None if no operation set it."""
    values = [p.timers[key] for p in passes if key in p.timers]
    return statistics.median(values) if values else None
