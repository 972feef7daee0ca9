"""Host-time benchmark for scancell.

    python3 perfbench/run.py --workload cell-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: cell-long, cell-sweep, qc-ppi and intake (see BENCHMARK.json
for why each was chosen); `all` runs each in its own fresh process.

One process, one thread, closed loop: each operation starts when the
previous one returns. The benchmark builds its inputs from `--seed`, then
runs passes over them until the next pass would end after `--seconds`
(at least three, so that the median of the passes sets one aside).
Before each pass the previous pass's outputs are gone and `gc.collect()`
runs outside the timed region. Every operation's output is checked; one
that raises or fails a check counts as failed.

`--trace 0` prints the end-to-end metrics: `pass_ref_s` (median time of
a pass in reference seconds), `peak_rss_mb` and `setup_s` (median wall
time of seven fresh interpreters that import the workload's layers and
build its inputs). Reference seconds are wall seconds rescaled by the
speed of a fixed slice of work interleaved with the measured work (see
reference.py), so that pass times do not follow the shared host's
changes of speed; the plain wall time of a pass, `pass_s`, is on the
report line. `--trace 1`
alternates untraced and traced passes without the reference, prints
per-layer self time and counts from the traced ones, and the tracing
overhead. The last line of stdout is one JSON object; the lines above it
give each workload's own metrics, the exact output statistics to diff
two commits by, and the run metadata. The full report (and, when traced, every span)
is also written under perfbench/results/.

The benchmark uses the scancell sources in the checkout's src/ and exits
with status 2 if there are none. `python3 perfbench/smoke.py` is its own
smoke test.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from reference import Reference
from spans import GcMeter, LayerStats, Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = {
    "cell-long": ("cell_workloads", "CELL_LONG"),
    "cell-sweep": ("cell_workloads", "CELL_SWEEP"),
    "qc-ppi": ("qc_workload", "QC_PPI"),
    "intake": ("intake_workload", "INTAKE"),
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
MIN_PASSES = 3
PPIS = (600, 1200, 2400)

LAYER_UNITS = {
    "cell.sim.simulate_s": "s",
    "cell.sim.events": "count",
    "cell.sim.events_per_s": "1/s",
    "cell.sim.gc_pause_s": "s",
    "cell.sim.gc_gen2": "count",
    "cell.sim.to_csv_s": "s",
    "cell.sim.csv_mb_per_s": "MB/s",
    "cell.invariants.check_s": "s",
    "cell.invariants.events_per_s": "1/s",
    "cell.config.codec_s": "s",
    **{f"qc.target.render_s.{ppi}": "s" for ppi in PPIS},
    "qc.target.mpx_per_s": "Mpx/s",
    "qc.target.print_scan_s": "s",
    "qc.raster.encode_s": "s",
    "qc.raster.decode_s": "s",
    **{f"qc.analyze.analyze_s.{ppi}": "s" for ppi in PPIS},
    "qc.analyze.crop_s": "s",
    "preservation.sample_s": "s",
    "preservation.plan_s": "s",
    "preservation.aggregate_s": "s",
    "sortie.parse_s": "s",
    "sortie.format_s": "s",
    "harness.self_s": "s",
    "gc.pause_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    """Timing and accounting of one pass; holds no large outputs."""

    traced: bool
    pass_s: float
    reference_s: float | None
    result: object
    gc_pause_s: float
    gc_gen0: int
    gc_gen1: int
    gc_gen2: int
    layers: dict
    spans: int


def parse_args(argv):
    parser = argparse.ArgumentParser(description="scancell host-time benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor in (0, 1], for the smoke test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")
    return args


def load_workload(name: str):
    module, attr = WORKLOADS[name]
    return getattr(importlib.import_module(module), attr)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import the layers and build the inputs.

    Not scaled by a reference: start-up is mostly the kernel starting the
    interpreter and mapping its files, and on the host the benchmark was
    written on its time followed neither kind of slice. Scaled, the median
    of ten runs moved by up to 24 % between two sets of runs; unscaled, by
    up to 7 % (20 % over four sets).
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", repr(args.scale), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = clock()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(clock() - start)
    return statistics.median(times)


def run_passes(workload, inputs, seconds: float, trace: bool):
    """Run passes until the next one would end after `seconds`; returns (passes, tracer).

    Untraced runs time each pass inside a `Reference`; traced runs do
    not, so that no reference slice lands inside a layer span.
    """
    meter = GcMeter()
    meter.install()
    tracer = Tracer(meter)
    reference = None if trace else Reference(workload.reference)
    passes: list[Pass] = []
    began = clock()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            gc.collect()
            tracer.begin_pass(traced)
            layer = workload.layers(tracer)
            gc_before, spans_before = meter.snapshot(), tracer.span_count()
            if reference is None:
                start = clock()
                result = workload.run_pass(layer, tracer, inputs)
                pass_s, reference_s = clock() - start, None
            else:
                with reference:
                    result = workload.run_pass(layer, tracer, inputs)
                pass_s, reference_s = reference.wall_s, reference.reference_s
            gc_delta = tuple(b - a for a, b in zip(gc_before, meter.snapshot()))
            passes.append(
                Pass(
                    traced, pass_s, reference_s, result, *gc_delta, tracer.layers,
                    tracer.span_count() - spans_before,
                )
            )
            elapsed = clock() - began
            typical = statistics.median(p.pass_s for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                break
    finally:
        meter.remove()
    return passes, tracer


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass; a layer the workload never calls reads 0."""
    empty = LayerStats()

    def get(name: str) -> LayerStats:
        return p.layers.get(name, empty)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sim, csv, check = get("cell.sim.simulate"), get("cell.sim.to_csv"), get("cell.invariants.check")
    renders = [get(f"qc.target.render.{k}") for k in (*PPIS, "scale_error")]
    values = {
        "cell.sim.simulate_s": sim.busy_s,
        "cell.sim.events": sim.work,
        "cell.sim.events_per_s": ratio(sim.work, sim.busy_s),
        "cell.sim.gc_pause_s": sim.gc_pause_s,
        "cell.sim.gc_gen2": sim.gc_gen2,
        "cell.sim.to_csv_s": csv.busy_s,
        "cell.sim.csv_mb_per_s": ratio(csv.work / 1e6, csv.busy_s),
        "cell.invariants.check_s": check.busy_s,
        "cell.invariants.events_per_s": ratio(check.work, check.busy_s),
        "cell.config.codec_s": get("cell.config.codec").busy_s,
        **{f"qc.target.render_s.{ppi}": get(f"qc.target.render.{ppi}").busy_s for ppi in PPIS},
        "qc.target.mpx_per_s": ratio(sum(r.work for r in renders) / 1e6, sum(r.busy_s for r in renders)),
        "qc.target.print_scan_s": get("qc.target.print_scan").busy_s,
        "qc.raster.encode_s": get("qc.raster.encode").busy_s,
        "qc.raster.decode_s": get("qc.raster.decode").busy_s,
        **{f"qc.analyze.analyze_s.{ppi}": get(f"qc.analyze.analyze.{ppi}").busy_s for ppi in PPIS},
        "qc.analyze.crop_s": get("qc.analyze.crop").busy_s,
        "preservation.sample_s": get("preservation.sample").busy_s,
        "preservation.plan_s": get("preservation.plan").busy_s,
        "preservation.aggregate_s": get("preservation.aggregate").busy_s,
        "sortie.parse_s": get("sortie.parse").busy_s,
        "sortie.format_s": get("sortie.format").busy_s,
        "harness.self_s": p.pass_s - sum(s.busy_s for s in p.layers.values()),
        "gc.pause_s": p.gc_pause_s,
        "trace.spans": p.spans,
    }
    return values


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over every source file's path and bytes, to name the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(args) -> int:
    load_start = os.getloadavg()
    setup_s = None if args.trace else measure_setup(args)
    workload = load_workload(args.workload)
    inputs = workload.build(args.seed, args.scale)
    passes, tracer = run_passes(workload, inputs, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import numpy  # after the peak is read: the cell workloads never load it

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(RESULTS / f"spans-{stem}.npz")
    attempted = sum(len(p.result.ops) for p in passes)
    failed = sum(not ok for p in passes for _, _, ok in p.result.ops)

    untraced = [p for p in passes if not p.traced]
    pass_s = statistics.median(p.pass_s for p in untraced)
    gc_pause_s = statistics.median(p.gc_pause_s for p in untraced)
    detail = {
        **({} if setup_s is None else {"setup_s": (setup_s, "s")}),
        **({} if args.trace else {"pass_ref_s": (statistics.median(p.reference_s for p in untraced), "s")}),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_rate": (failed / attempted, "ratio"),
        **workload.summarize([p.result for p in untraced], pass_s),
        "gc_pause_s": (gc_pause_s, "s"),
        "gc_share": (gc_pause_s / pass_s, "ratio"),
    }
    if args.trace:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(p.pass_s for p in traced) - pass_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        layers = {name: s.as_dict() for name, s in traced[-1].layers.items()}
    else:
        metrics = {
            name: {"value": detail[name][0], "unit": detail[name][1]}
            for name in ("pass_ref_s", "peak_rss_mb", "setup_s")
        }
        layers = {}
    report = {
        "workload": args.workload,
        "metadata": {
            "commit": git_commit(),
            "src_sha256": source_digest(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        "pass_s": [p.pass_s for p in passes],
        "pass_ref_s": [p.reference_s for p in passes],
        "pass_traced": [p.traced for p in passes],
        "gc_per_pass": [[p.gc_pause_s, p.gc_gen0, p.gc_gen1, p.gc_gen2] for p in passes],
        "stats": untraced[0].result.stats,
        "layers": layers,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, (value, unit) in detail.items():
        if value is not None:
            print(f"{args.workload:<11} {name:<22} {value:>14.6g} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own fresh process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", repr(args.scale),
        ]
        out = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"perfbench: workload {name} exited with {out.returncode}", file=sys.stderr)
            return out.returncode
        lines = out.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"report"')))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scancell" / "__init__.py").is_file():
        print(f"perfbench: no scancell sources in {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        load_workload(args.workload).build(args.seed, args.scale)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
