"""Smoke test of the benchmark: every workload, tiny inputs, both modes.

    python3 perfbench/smoke.py

Runs each workload at `--scale 0.02` for one second with tracing off and
on, and checks that the run is correct, that the last line carries
exactly the metrics BENCHMARK.json names with their units, and that the
report line carries every workload metric with its unit. Also checks
that the benchmark refuses to run where there are no scancell sources.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COMMON = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
    "gc_pause_s": "s",
    "gc_share": "ratio",
}
WORKLOAD_METRICS = {
    "cell-long": {"sim_hours_per_s": "h/s"},
    "cell-sweep": {
        "sim_hours_per_s": "h/s",
        "configs_per_s": "1/s",
        "run_ms_p50": "ms",
        "run_ms_p99": "ms",
    },
    "qc-ppi": {"qc_600_s": "s", "qc_1200_s": "s", "qc_2400_s": "s"},
    "intake": {"boxes_per_s": "1/s", "ids_per_s": "1/s"},
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", str(trace), "--scale", "0.02",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(where: str, metrics: dict, expected: dict[str, str], problems: list[str]) -> None:
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} has value {value!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_METRICS):
        problems.append("BENCHMARK.json workloads differ from the smoke test's list")
    for workload in WORKLOAD_METRICS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            out = run(workload, trace)
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: last line keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
            check_metrics(where, result.get("metrics", {}), {m["name"]: m["unit"] for m in listed}, problems)
            report = json.loads(lines[-2])["report"]
            expected = {**COMMON, **WORKLOAD_METRICS[workload]}
            if trace:  # set-up and the reference are measured by the untraced run only
                for name in ("setup_s", "pass_ref_s"):
                    del expected[name]
            check_metrics(f"{where} report", report["metrics"], expected, problems)
            print(f"{where}: done", flush=True)

    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run("cell-long", 0, cwd=bare)
    if out.returncode == 0 or out.stdout.strip():
        problems.append(f"bare checkout: exit {out.returncode}, stdout {out.stdout[:200]!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
