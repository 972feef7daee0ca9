import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scancell import acceptance, cli, preservation
from scancell.acceptance import CheckResult
from scancell.cell import CellConfig, HandlingTime, sim
from scancell.cli import main
from scancell.preservation import IssueRates, PrintCondition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quietly(*argv):
    """Run the CLI outside pytest's capture; returns (exit code, stdout bytes,
    stderr text)."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


class TestDispatch:
    def test_parse_id_exemplar(self, capsys):
        code, out, _ = run(capsys, "parse-id", "4/BC/0056")
        assert code == 0
        payload = json.loads(out)
        assert payload["variant"] == "dos_contract"
        assert payload["contract_number"] == 4
        assert payload["canonical"] == "4/BC/0056"

    def test_parse_error_exits_1_with_module(self, capsys):
        code, _, err = run(capsys, "parse-id", "not an identifier")
        assert code == 1
        assert err.startswith("sortie: ")

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_simulate_requires_seed(self, capsys):
        code, _, err = run(capsys, "simulate", "--hours", "1")
        assert code == 2

    def test_preserve_sample_requires_seed(self, capsys):
        code, _, _ = run(capsys, "preserve", "sample", "--n", "10")
        assert code == 2

    def test_cost_breakeven(self, capsys):
        code, out, _ = run(capsys, "cost", "breakeven")
        assert code == 0
        assert json.loads(out)["break_even_scans"] == 2_363_059

    def test_cost_weeks_requires_scans(self, capsys):
        code, _, err = run(capsys, "cost", "weeks")
        assert code == 2
        assert "economics" in err

    def test_cost_weeks_requires_a_capacity(self, capsys, tmp_path):
        params = tmp_path / "a.json"
        params.write_text(json.dumps({"per_scan_variable": 0.1, "fixed_total": 100}))
        code, _, err = run(capsys, "cost", "weeks", "--scans", "5", "--a", str(params))
        assert code == 2
        assert err.startswith("economics: configuration error: no weekly capacity given")

    def test_throughput_with_fleet(self, capsys):
        code, out, _ = run(capsys, "throughput", "--mode", "robotic", "--fleet", "14")
        payload = json.loads(out)
        assert code == 0
        assert payload["scans_per_hour"] == 54
        assert payload["fleet"]["scans_per_day"] == 9072

    def test_ratio(self, capsys):
        code, out, _ = run(capsys, "ratio")
        assert code == 0
        assert json.loads(out)["per_worker"] == pytest.approx(36.288)

    def test_utilization(self, capsys):
        code, out, _ = run(
            capsys, "utilization", "--observed-daily", "9090", "--observed-weekly", "36084"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["daily_at_or_above_theoretical"] is True

    def test_photogrammetry_adequacy(self, capsys):
        code, out, _ = run(
            capsys, "photogrammetry", "adequacy", "--ppi", "1200", "--lp-per-mm", "27"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "undersampled"


class TestSimulateCommand:
    def test_trace_and_report_files(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "simulate",
            "--seed", "7",
            "--hours", "0.5",
            "--trace", str(trace),
            "--report", str(report),
        )
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "time_ms,entity,transition,cause_event_id"
        payload = json.loads(report.read_text())
        assert payload["mode"] == "simulated"

    def test_streamed_trace_equals_to_csv(self, capsys, tmp_path, monkeypatch):
        expected = sim.simulate(CellConfig(), seed=7, horizon_seconds=1800)[0].to_csv()
        monkeypatch.setattr(sim, "CSV_BLOCK_EVENTS", 7)  # many blocks
        argv = ["simulate", "--seed", "7", "--hours", "0.5", "--report", str(tmp_path / "r.json")]
        trace = tmp_path / "trace.csv"
        assert run(capsys, *argv, "--trace", str(trace)) == (0, "", "")
        assert trace.read_text() == expected
        assert run(capsys, *argv, "--trace", "-") == (0, expected, "")
        assert expected.count("\n") > 3 * 7

    def test_byte_identical_reruns(self, capsys, tmp_path):
        config = tmp_path / "cell.json"
        config.write_text(
            json.dumps(
                {
                    "hopper_capacity": 40,
                    "handling_time": {"kind": "lognormal", "mean_seconds": 66.7, "spread": 0.2},
                    "lift_failure_prob": 0.05,
                }
            )
        )
        outputs = []
        for run_dir in ("a", "b"):
            trace = tmp_path / run_dir / "trace.csv"
            report = tmp_path / run_dir / "report.json"
            trace.parent.mkdir()
            code, _, _ = run(
                capsys,
                "simulate",
                "--config", str(config),
                "--seed", "3",
                "--hours", "2",
                "--trace", str(trace),
                "--report", str(report),
            )
            assert code == 0
            outputs.append((trace.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bad_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "cell.json"
        config.write_text(json.dumps({"scan_seconds": -5}))
        code, _, err = run(
            capsys, "simulate", "--config", str(config), "--seed", "1", "--hours", "1"
        )
        assert code == 2
        assert err.startswith("cell: configuration error")

    @pytest.mark.parametrize("hours", ["nan", "inf", "1e302"])
    def test_non_finite_hours_exit_2(self, capsys, hours):
        code, _, err = run(capsys, "simulate", "--seed", "1", "--hours", hours)
        assert code == 2
        assert "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"reload_seconds": NaN, "hopper_capacity": 5}',
            '{"handling_time": {"mean_seconds": Infinity}}',
            '{"scan_seconds": 0.0001, "handling_time": {"mean_seconds": 0.0001}, '
            '"hopper_capacity": null}',
            '{"hoper_capacity": 5}',
            '{"print_sizes": null}',
            '{"scanners_per_robot": "x"}',
            "[]",
        ],
    )
    def test_unrunnable_config_exits_2(self, capsys, tmp_path, text):
        config = tmp_path / "cell.json"
        config.write_text(text)
        code, _, err = run(
            capsys, "simulate", "--config", str(config), "--seed", "1", "--hours", "24"
        )
        assert code == 2
        assert err.startswith("cell: configuration error")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b"1" * 5_000],
        ids=["not-utf8", "deeply-nested", "over-long-integer"],
    )
    def test_undecodable_config_exits_2(self, capsys, tmp_path, data):
        config = tmp_path / "cell.json"
        config.write_bytes(data)
        code, _, err = run(
            capsys, "simulate", "--config", str(config), "--seed", "1", "--hours", "1"
        )
        assert code == 2
        assert err.startswith("cell: configuration error: invalid JSON")

    def test_millisecond_cycle_exits_1_at_the_event_budget(self, capsys, tmp_path):
        # 42,000 events per simulated second: an hour would need 150 M events
        config = tmp_path / "cell.json"
        config.write_text(
            json.dumps(
                {
                    "scan_seconds": 0.001,
                    "handling_time": {"kind": "fixed", "mean_seconds": 0.001, "spread": 0.0},
                    "hopper_capacity": None,
                }
            )
        )
        trace = tmp_path / "trace.csv"
        code, out, err = run(
            capsys, "simulate", "--config", str(config), "--seed", "1", "--hours", "1",
            "--trace", str(trace),
        )
        assert code == 1
        assert err.startswith("cell: run exceeds 3,000,000 events")
        assert out == ""
        assert not trace.exists()

    @pytest.mark.parametrize("hours", ["0", "1e-10"])
    def test_zero_millisecond_horizon_writes_a_header_only_trace(self, capsys, tmp_path, hours):
        trace = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        argv = ["simulate", "--seed", "1", "--hours", hours, "--trace", str(trace)]
        assert run(capsys, *argv, "--report", str(report)) == (0, "", "")
        assert trace.read_bytes() == b"time_ms,entity,transition,cause_event_id\n"
        payload = json.loads(report.read_text())
        assert payload["scans_completed"] == 0
        assert payload["per_scanner_scans"] == [0, 0]


class TestPreserveCommand:
    def test_plan_round_trip(self, capsys, tmp_path):
        condition = tmp_path / "condition.json"
        condition.write_text(
            json.dumps({"mould": "dormant", "curling_or_creases": True})
        )
        code, out, _ = run(capsys, "preserve", "plan", str(condition))
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == ["clean_mould", "humidify_and_press", "vacuum_pack"]
        assert payload["routing"] == "mould_isolated"

    def test_sample_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "conditions.csv"
        code, out, _ = run(
            capsys,
            "preserve", "sample",
            "--n", "500",
            "--seed", "11",
            "--csv", str(csv_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 500
        assert payload["independent_any_intervention"] == pytest.approx(0.371, abs=0.002)
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 501

    @pytest.mark.parametrize("n", ["0", "-1", "1000001"])
    def test_sample_count_out_of_range_exits_1_naming_it(self, capsys, tmp_path, n):
        csv_path = tmp_path / "conditions.csv"
        code, out, err = run(
            capsys, "preserve", "sample", "--n", n, "--seed", "1", "--csv", str(csv_path)
        )
        assert code == 1
        assert err == f"preservation: sample count must lie in [1, 1,000,000], got {n}\n"
        assert out == ""
        assert not csv_path.exists()

    def test_streamed_sample_csv_equals_the_per_box_text(self, capsys, tmp_path, monkeypatch):
        conditions = preservation.sample_boxes(500, 11, IssueRates())
        rows = [",".join(map(str, c.to_json_dict().values())) for c in conditions]
        expected = "\n".join([",".join(f.name for f in fields(PrintCondition)), *rows]) + "\n"
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)  # many blocks
        argv = ["preserve", "sample", "--n", "500", "--seed", "11", "--out", str(tmp_path / "o")]
        csv_path = tmp_path / "conditions.csv"
        assert run(capsys, *argv, "--csv", str(csv_path)) == (0, "", "")
        assert csv_path.read_text() == expected
        assert run(capsys, *argv, "--csv", "-") == (0, expected, "")


class TestQcCommands:
    def test_render_analyze_crop_cycle(self, capsys, tmp_path):
        target = tmp_path / "target.pgm"
        code, _, _ = run(capsys, "qc", "render", "--ppi", "300", "--out", str(target))
        assert code == 0

        code, out, _ = run(capsys, "qc", "analyze", str(target))
        assert code == 0
        report = json.loads(out)
        assert report["scale_verdict"] == "pass"
        assert len(report["wedge_values"]) == 21

    def test_render_with_noise_requires_seed(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "qc", "render",
            "--ppi", "300",
            "--noise-sigma", "2",
            "--out", str(tmp_path / "t.pgm"),
        )
        assert code == 2
        assert "seed" in err

    def test_batch_analyze_csv(self, capsys, tmp_path):
        for name in ("one.pgm", "two.pgm"):
            code, _, _ = run(
                capsys, "qc", "render", "--ppi", "300", "--out", str(tmp_path / name)
            )
            assert code == 0
        code, out, _ = run(capsys, "qc", "analyze", str(tmp_path))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("file,measured_scale_px")
        assert len(lines) == 3

    def test_batch_csv_quotes_commas_in_names_and_errors(self, capsys, tmp_path):
        from scancell.qc import default_geometry, render_target

        render_target(default_geometry(), 300.0).save(tmp_path / "d,e.pgm")
        (tmp_path / "bad.pgm").write_bytes(b"P5\n# ppi 300\n2 2\n25x\n" + bytes(4))
        code, out, _ = run(capsys, "qc", "analyze", str(tmp_path))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[0] for row in rows[1:]] == ["bad.pgm", "d,e.pgm"]
        assert rows[1][5] == "PGM size and maxval must be integers: [b'2', b'2', b'25x']"
        assert rows[2][2:4] == ["pass", "True"] and rows[2][5] == ""

    def test_batch_unreadable_entry_gets_its_own_row(self, capsys, tmp_path):
        from scancell.qc import default_geometry, render_target

        render_target(default_geometry(), 300.0).save(tmp_path / "target.pgm")
        (tmp_path / "sub.pgm").mkdir()
        code, out, err = run(capsys, "qc", "analyze", str(tmp_path))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows[1:]] == ["sub.pgm", "target.pgm"]
        assert rows[1][1:5] == ["", "", "", ""] and "Is a directory" in rows[1][5]
        assert rows[2][2] == "pass" and rows[2][5] == ""

    def test_crop_file(self, capsys, tmp_path):
        import numpy as np
        from scancell.qc import GrayRaster

        pixels = np.full((200, 300), 10, dtype=np.uint8)
        pixels[50:150, 100:220] = 210
        scan = tmp_path / "scan.pgm"
        GrayRaster(pixels, 300).save(scan)
        out_path = tmp_path / "cropped.pgm"
        code, _, _ = run(capsys, "qc", "crop", str(scan), "--out", str(out_path))
        assert code == 0
        border = round(5 * 300 / 25.4)
        cropped = GrayRaster.load(out_path)
        assert cropped.width == 120 + 2 * border

    def test_analysis_error_exits_1(self, capsys, tmp_path):
        import numpy as np
        from scancell.qc import GrayRaster

        dark = tmp_path / "dark.pgm"
        GrayRaster(np.full((50, 50), 3, dtype=np.uint8), 300).save(dark)
        code, _, err = run(capsys, "qc", "crop", str(dark), "--out", str(tmp_path / "x.pgm"))
        assert code == 1
        assert err.startswith("qc: ")

    def test_batch_csv_out_is_utf8(self, capsys, tmp_path):
        import numpy as np
        from scancell.qc import GrayRaster

        rasters = tmp_path / "rasters"
        rasters.mkdir()
        GrayRaster(np.full((50, 50), 3, dtype=np.uint8), 300).save(rasters / "é.pgm")
        code, out, _ = run(capsys, "qc", "analyze", str(rasters))
        assert code == 0
        assert out.startswith("file,") and "\né.pgm,,,,," in out
        batch = tmp_path / "batch.csv"
        assert run(capsys, "qc", "analyze", str(rasters), "--out", str(batch)) == (0, "", "")
        assert batch.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("action", ["render", "crop"])
    def test_out_dash_writes_the_pgm_to_stdout(self, capsysbinary, tmp_path, monkeypatch, action):
        from scancell.qc import render_print_scan

        monkeypatch.chdir(tmp_path)
        render_print_scan(50.0).save(tmp_path / "scan.pgm")
        argv = ["qc", "render", "--ppi", "100"] if action == "render" else ["qc", "crop", "scan.pgm"]
        assert main(argv + ["--out", "-"]) == 0
        assert main(argv + ["--out", "file.pgm"]) == 0
        assert capsysbinary.readouterr() == ((tmp_path / "file.pgm").read_bytes(), b"")
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("comment", ["1.2.3", "1e999", "nan", "300dpi"])
    @pytest.mark.parametrize("action", ["analyze", "crop"])
    def test_malformed_ppi_comment_exits_1(self, capsys, tmp_path, action, comment):
        scan = tmp_path / "scan.pgm"
        scan.write_bytes(f"P5\n# ppi {comment}\n2 2\n255\n".encode() + bytes(4))
        code, _, err = run(capsys, "qc", action, str(scan), "--out", str(tmp_path / "x.pgm"))
        assert code == 1
        assert err == f"qc: PGM ppi comment must be a finite positive number, got {comment!r}\n"

    @pytest.mark.parametrize("action", ["analyze", "crop"])
    def test_missing_ppi_comment_exits_1(self, capsys, tmp_path, action):
        scan = tmp_path / "scan.pgm"
        scan.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        code, _, err = run(capsys, "qc", action, str(scan), "--out", str(tmp_path / "x.pgm"))
        assert code == 1
        assert err == 'qc: PGM carries no "# ppi N" header comment; add one after the P5 line\n'


    @pytest.mark.parametrize(
        "action, message",
        [("analyze", "scale row band lies outside the raster"), ("crop", "no light print region found")],
    )
    @pytest.mark.parametrize("size", ["0 0", "3 0"])
    def test_empty_raster_exits_1(self, capsys, tmp_path, action, message, size):
        scan = tmp_path / "scan.pgm"
        scan.write_bytes(f"P5\n# ppi 300\n{size}\n255\n".encode())
        out_path = tmp_path / "x.pgm"
        code, out, err = run(capsys, "qc", action, str(scan), "--out", str(out_path))
        assert (code, out, err) == (1, "", f"qc: {message}\n")
        assert not out_path.exists()


def test_unwritable_output_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "ratio", "--out", str(tmp_path / "missing_dir" / "ratio.json")
    )
    assert code == 1
    assert "i/o error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "missing.json", "--seed", "1", "--hours", "1"],
        ["cost", "breakeven", "--a", "missing.json"],
        ["cost", "breakeven", "--b", "missing.json"],
        ["preserve", "sample", "--n", "10", "--seed", "1", "--rates", "missing.json"],
        ["preserve", "plan", "missing.json"],
        ["qc", "analyze", "missing.pgm"],
        ["qc", "crop", "missing.pgm", "--out", "crop.pgm"],
    ],
    ids=["config", "cost-a", "cost-b", "rates", "condition", "qc-analyze", "qc-crop"],
)
def test_missing_input_file_exits_1(capsys, tmp_path, monkeypatch, argv):
    # a file that cannot be read is an i/o error, whatever the input
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "i/o error" in err and "missing." in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_import_leaves_numpy_out():
    # only the qc and paper-check handlers import numpy, through qc
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    check = "import sys, scancell.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=env, timeout=60).returncode == 0


def test_cost_curve_csv(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "cost", "curve", "--start", "1000", "--stop", "100000", "--points", "5",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "n,cost_per_scan_a,cost_per_scan_b"
    assert len(lines) >= 5


# Input files in the shapes documented in docs/cli.md.
DOC_INPUTS = {
    "cell.json": {
        "scanners_per_robot": 2,
        "scan_seconds": 45.0,
        "handling_time": {"kind": "fixed", "mean_seconds": 66.7, "spread": 0.0},
        "hopper_capacity": 300,
        "lift_retry_limit": 3,
        "lift_failure_prob": 0.0,
        "attendance": [[day, 9.0, 17.0] for day in range(5)],
        "reload_seconds": 60.0,
        "ramp_multiplier": 1.0,
    },
    "robotic.json": {
        "per_scan_variable": 0.0075,
        "fixed_items": [
            ["engineered table", 80000, 4],
            ["robotic arm", 36000, 4],
            ["scanner", 5000, 8],
            ["scanner-lid lifting automation", 350, 8],
            ["manual scanner", 5000, 1],
        ],
        "fixed_total": 512150,
        "weekly_capacity": 36288,
    },
    "manual.json": {
        "per_scan_variable": "0.22",
        "fixed_items": [["scanner", 5000, 2]],
        "weekly_capacity": 3500.0,
    },
    "condition.json": {"mould": "dormant", "curling_or_creases": True},
    "condition_full.json": {
        "mould": "none",
        "blocking": True,
        "silver_dust": True,
        "annotations_or_adhesives": False,
        "curling_or_creases": False,
        "rips_or_peeling": "minor",
    },
    "rates.json": {"mould": 0.05, "ripped": 0.1, "emulsion_peeling": 0.02},
}

# sha256 of the stdout of every command shown in docs/cli.md that prints its
# result; `@name` stands for the path of `name` in `doc_dir`.
GOLDEN_STDOUT = {
    "simulate --seed 7 --hours 24 --config @cell.json":
        "ab4b28851c954455639ec4de3131fab9b0c23cfcb3598b33b4f6d530ffecf79e",
    "throughput --mode robotic --fleet 14":
        "145e9cc1fb959f1e138594320dad53cd2c58b83e0a5301c8c3e6437e207c6bc0",
    "throughput --mode human_operated":
        "a51dfa50cc014f5744a95d9f36ff38ae308536c662ed65b3aa1658e8b785c41c",
    "ratio":
        "2b7d794bd98c6ec9eb9837fb9dafc3bffc900e811642f4c4788a6ceec9ba9e91",
    "utilization --observed-daily 9090 --observed-weekly 36084 --scanners 14":
        "d3fad5aa76afa08260ae576a07dafe69d197d5dbd6288ddaf0fdcc6acfd5e6bc",
    "utilization --observed-daily 5000 --observed-weekly 30000 --scanners 14":
        "3461efadf0701470b07a3bf9dc6ab713cee63db3aaed83dd1e46783258981156",
    "cost breakeven":
        "088f12bd5edf3e58bbc08222d282e393034b88efb32b05d4833929f3de4ee10b",
    "cost halving":
        "e04f8beda2ab1602aea39bda56b32390d86bd05f9c5b46bef05b427f104da038",
    "cost weeks --scans 2363059 --capacity 36288":
        "c809327f583e51b548272bce605a7ec327396f8249affcadb825a077c74c4d1d",
    "cost breakeven --a @robotic.json --b @manual.json":
        "088f12bd5edf3e58bbc08222d282e393034b88efb32b05d4833929f3de4ee10b",
    "cost halving --a @robotic.json --b @manual.json":
        "e04f8beda2ab1602aea39bda56b32390d86bd05f9c5b46bef05b427f104da038",
    "cost weeks --scans 2363059 --a @robotic.json":
        "4cc1635530a94e7aa22b9d18527e8644ece0286c80f29250609210a4ad1dc576",
    "cost weeks --scans 100000 --a @manual.json":
        "c11cb4e9efb6636cb9b16d6ec1686489ce8699d1d27729679a14782e9bb90095",
    "parse-id 4/BC/0056":
        "c750ea5bd101869011f84f748f56076e558a5307b282032f3ac6cbb84a838957",
    "parse-id 58/RAF/0456":
        "ac124a6114d74e0cc927da4c295d8cdba91c14f2a010fff5c3db74072d7a30a0",
    "parse-id HSL/GH/64/0034":
        "755036f25bab9b0f288787890e855e90732dc1f6b4817e87cb298e4c57af3b39",
    "parse-id --usaaf K17/LOCAL/NOTES":
        "3dec23341ada50bb60afd1e576d9d957095855b75b6003cae5a317fc733bd68d",
    "preserve plan @condition.json":
        "ce68ad8d2901bf896bf514cd6db15772294e16485fb0a8624270d34aa8e208bb",
    "preserve plan @condition_full.json":
        "936a24058da4c017b43ba02554f532cc4880c0efbca4acf9673ecf0bad5ba759",
    "preserve sample --n 200 --seed 42":
        "f65c68e13b388ca06d8eeb0495088fc9f4b7bb6a35603c6a3d95acaa3d55a934",
    "preserve sample --n 200 --seed 42 --rates @rates.json":
        "2da91cd3875249d133a33bae43437fcbfef505249f04555619badf9d7ec790a0",
    "photogrammetry scale --focal-in 6 --altitude-ft 5000":
        "32f2c593c8c472a34e8844c272888f2f3d07750cbcc35be206dbe8be75de040e",
    "photogrammetry feature --lp-per-mm 10":
        "ad2c52e0750adf214da4313494ca13fef6efabdee4282ad09edfba0f1b71e634",
    "photogrammetry grd --lp-per-mm 10 --scale-denominator 42579":
        "e839e05224f80d8fb1799cc5d3d51e8405ab92557c8c56b4a04540c39a4f49e0",
    "photogrammetry pixel-range --lp-per-mm 27":
        "9eb478ccf618417166e52284682a73697f7a9ac40ff4d35bfd1455f0e83258f3",
    "photogrammetry adequacy --ppi 1200 --lp-per-mm 27":
        "2e001857639561b730fc4227dc9cab09a779c38d2a1549ac8cde2f4985b91a44",
    "photogrammetry storage --images 1700000 --bytes-per-image 250000000":
        "25b544c6ebf81419d85a4c4c67ef6ecd14faad13ea6e015f1ffd4cdb92cc4a62",
    "qc analyze @target.pgm":
        "95e42851fda3888f20d2afd616a1e17028bade70a1784adafa833f2380bf4121",
    "qc analyze @rasters":
        "07b71f73b70c106debb655c5171821490fb679275dbbe7caba9843dc3572c7e1",
}

# sha256 of the file each documented command writes: the `@` path that is
# not one of the inputs `doc_dir` makes.
GOLDEN_FILES = {
    "simulate --seed 7 --hours 24 --config @cell.json --trace @trace.csv --report @report.json":
        ("trace.csv", "bff62273d61f67f0161deb20aee75932330c47354a568cda397a7016b6a10702"),
    "cost curve --start 1000 --stop 10000000 --points 60 --out @curve.csv":
        ("curve.csv", "5299d003223429e1b4c4f05eb1b36b5407038d67f1c392373047e6b9d7eb3527"),
    "qc render --ppi 300 --out @render.pgm":
        ("render.pgm", "daaa88b1aff6823198a8249cfaaa04a3729c68a3e67bfd28a2f0872da08fb4a8"),
    "qc analyze @rasters --out @batch.csv":
        ("batch.csv", "07b71f73b70c106debb655c5171821490fb679275dbbe7caba9843dc3572c7e1"),
    "qc crop @scan.pgm --out @cropped.pgm --border-mm 5":
        ("cropped.pgm", "8eb87b61e38bcb448418fac73a0011b5b1aec37d4098a2591c2ebbe2bc112596"),
    "preserve sample --n 200 --seed 42 --csv @conditions.csv":
        ("conditions.csv", "b13c763c726f3bb90a99f8320bf9c40e9321d182112a83482ec3a4e2fd2dcf72"),
}


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    """DOC_INPUTS as files, a 300 ppi target (alone and in a batch directory
    beside a raster too dark to analyze) and a 100 ppi print scan."""
    import numpy as np
    from scancell.qc import GrayRaster, default_geometry, render_print_scan, render_target

    directory = tmp_path_factory.mktemp("doc")
    for name, payload in DOC_INPUTS.items():
        (directory / name).write_text(json.dumps(payload))
    target = render_target(default_geometry(), 300.0)
    target.save(directory / "target.pgm")
    (directory / "rasters").mkdir()
    target.save(directory / "rasters" / "target.pgm")
    GrayRaster(np.full((50, 50), 3, dtype=np.uint8), 300).save(directory / "rasters" / "dark.pgm")
    render_print_scan(100.0).save(directory / "scan.pgm")
    return directory


def _resolve(token, inputs, outputs=None):
    """`@name` as inputs/name when that exists, else as outputs/name; any
    other token as it is."""
    if not token.startswith("@"):
        return token
    name = token[1:]
    return str(inputs / name if outputs is None or (inputs / name).exists() else outputs / name)


def _argv(command, inputs, outputs=None):
    return [_resolve(token, inputs, outputs) for token in command.split()]


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_documented_outputs_byte_identical(capsys, doc_dir, command):
    code, out, err = run(capsys, *_argv(command, doc_dir))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_FILES))
def test_documented_files_byte_identical(capsys, doc_dir, tmp_path, command):
    name, digest = GOLDEN_FILES[command]
    code, _, err = run(capsys, *_argv(command, doc_dir, tmp_path))
    assert (code, err) == (0, "")
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


CANNED_CHECKS = [
    CheckResult("1 throughput identities", "robotic scans/hour", True, "54.0"),
    CheckResult("10 storage", "total terabytes", True, "425.0"),
]


@pytest.mark.parametrize(
    "checks, code, table",
    [
        (
            CANNED_CHECKS,
            0,
            "[PASS] 1 throughput identities  robotic scans/hour: 54.0\n"
            "[PASS] 10 storage               total terabytes: 425.0\n"
            "2/2 checks passed\n",
        ),
        (
            CANNED_CHECKS + [CheckResult("4 simulation", "ledger", False, "off by 1 ms")],
            1,
            "[PASS] 1 throughput identities  robotic scans/hour: 54.0\n"
            "[PASS] 10 storage               total terabytes: 425.0\n"
            "[FAIL] 4 simulation             ledger: off by 1 ms\n"
            "2/3 checks passed\n",
        ),
    ],
    ids=["all-pass", "one-failure"],
)
def test_paper_check_table(capsys, monkeypatch, checks, code, table):
    monkeypatch.setattr(acceptance, "run_all", lambda: checks)
    assert run(capsys, "paper-check")[:2] == (code, table)


@pytest.mark.parametrize(
    "argv",
    [
        ["qc", "render", "--ppi", "nan", "--out", "x.pgm"],
        ["qc", "render", "--ppi", "inf", "--out", "x.pgm"],
        ["qc", "render", "--scale-error", "nan", "--out", "x.pgm"],
        ["qc", "render", "--noise-sigma", "nan", "--seed", "1", "--out", "x.pgm"],
        ["cost", "weeks", "--scans", "100", "--capacity", "nan"],
        ["cost", "weeks", "--scans", "100", "--capacity", "inf"],
        ["utilization", "--observed-daily", "nan", "--observed-weekly", "36084"],
        ["utilization", "--observed-daily", "9090", "--observed-weekly", "inf"],
        ["photogrammetry", "feature", "--lp-per-mm", "inf"],
        ["photogrammetry", "grd", "--lp-per-mm", "10", "--scale-denominator", "inf"],
        # finite inputs whose result overflows to infinity
        ["photogrammetry", "feature", "--lp-per-mm", "1e-308"],
        ["photogrammetry", "grd", "--lp-per-mm", "1e-300", "--scale-denominator", "1e300"],
    ],
)
def test_non_finite_arguments_rejected(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code in (1, 2)
    assert "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ppi", "1e308"], "more pixels on a side"),
        (["--ppi", "600", "--blur-px", "1e308"], "kernel radius"),
        (["--ppi", "600", "--blur-px", "2000"], "beyond the blur budget"),
    ],
)
def test_qc_render_beyond_the_raster_exits_1(capsys, tmp_path, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "qc", "render", *flags, "--out", "x.pgm")
    assert (code, out) == (1, "")
    assert message in err
    assert "numeric overflow" not in err and "Traceback" not in err
    assert not (tmp_path / "x.pgm").exists()


def test_qc_crop_with_a_border_past_the_scan_keeps_all_of_it(capsys, tmp_path, monkeypatch):
    from scancell.qc import render_print_scan

    monkeypatch.chdir(tmp_path)
    render_print_scan(50.0).save(tmp_path / "scan.pgm")
    argv = ["qc", "crop", "scan.pgm", "--border-mm", "1e308", "--out", "c.pgm"]
    assert run(capsys, *argv) == (0, "", "")
    assert (tmp_path / "c.pgm").read_bytes() == (tmp_path / "scan.pgm").read_bytes()


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["photogrammetry", "scale", "--altitude-ft", "5000"], 2),
        (["photogrammetry", "scale", "--focal-in", "6"], 2),
        (["photogrammetry", "scale", "--focal-mm", "152", "--focal-in", "6", "--altitude-m", "9"], 2),
        (["photogrammetry", "scale", "--focal-in", "6", "--altitude-m", "9", "--altitude-ft", "9"], 2),
        (["photogrammetry", "scale", "--focal-mm", "0", "--altitude-ft", "5000"], 1),
        (["photogrammetry", "scale", "--focal-in", "6", "--altitude-m", "0"], 1),
        (["throughput", "--mode", "robotic", "--fleet", "0"], 1),
        # an empty path names no file, so reading it fails
        (["simulate", "--config", "", "--seed", "1", "--hours", "1"], 1),
        (["cost", "breakeven", "--a", ""], 1),
        (["cost", "breakeven", "--b", ""], 1),
        (["preserve", "sample", "--n", "10", "--seed", "1", "--rates", ""], 1),
        # nor can writing it
        (["simulate", "--seed", "1", "--hours", "1", "--trace", ""], 1),
        (["preserve", "sample", "--n", "10", "--seed", "1", "--csv", ""], 1),
    ],
)
def test_zero_is_a_value_not_an_absence(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert "Traceback" not in err


@pytest.mark.parametrize("ramp", [1e-170, 1e170])
def test_ramp_out_of_float_range_exits_1(capsys, tmp_path, ramp):
    # hopper reloads take 15 days, so the robot stays idle into week 2
    config = tmp_path / "ramp.json"
    config.write_text(json.dumps({
        "hopper_capacity": 1,
        "reload_seconds": 1300000.0,
        "ramp_multiplier": ramp,
        "attendance": [[day, 0.0, 24.0] for day in range(7)],
    }))
    code, out, err = run(capsys, "simulate", "--seed", "1", "--hours", "400", "--config", str(config))
    assert (code, out) == (1, "")
    assert "ramp_multiplier" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["simulate", "--seed", "1", "--hours", "1", "--config", "scanners.json"], 2),
        (["preserve", "sample", "--n", "1000001", "--seed", "1"], 1),
        (["cost", "curve", "--points", "100001"], 1),
    ],
)
def test_sizes_beyond_their_cap_rejected(capsys, tmp_path, monkeypatch, argv, exit_code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scanners.json").write_text('{"scanners_per_robot": 1001}')
    monkeypatch.setattr(preservation, "_draw_condition", mock.Mock(side_effect=AssertionError))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert "Traceback" not in err


# Every numeric option of these commands; the tokens before the option
# make the rest of the command valid.
NUMERIC_OPTIONS = [
    "throughput --mode robotic --fleet",
    "utilization --observed-weekly 36084 --observed-daily",
    "utilization --observed-daily 9090 --observed-weekly",
    "utilization --observed-daily 9090 --observed-weekly 36084 --scanners",
    "cost curve --start",
    "cost curve --stop",
    "cost curve --points",
    "cost weeks --capacity 4536 --scans",
    "cost weeks --scans 1000 --capacity",
    "photogrammetry scale --altitude-ft 5000 --focal-mm",
    "photogrammetry scale --altitude-ft 5000 --focal-in",
    "photogrammetry scale --focal-in 6 --altitude-m",
    "photogrammetry scale --focal-in 6 --altitude-ft",
    "photogrammetry feature --lp-per-mm",
    "photogrammetry grd --scale-denominator 42579 --lp-per-mm",
    "photogrammetry grd --lp-per-mm 10 --scale-denominator",
    "photogrammetry pixel-range --lp-per-mm",
    "photogrammetry adequacy --lp-per-mm 27 --ppi",
    "photogrammetry adequacy --ppi 1200 --lp-per-mm",
    "photogrammetry storage --bytes-per-image 250000000 --images",
    "photogrammetry storage --images 1700000 --bytes-per-image",
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "value", ["nan", "inf", "-inf", "0", "-1", pytest.param("9" * 400, id="400-digits")]
)
@pytest.mark.parametrize("command", NUMERIC_OPTIONS)
def test_numeric_options_never_print_non_json(capsys, command, value):
    *argv, option = command.split()
    code, out, err = run(capsys, *argv, f"{option}={value}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


# The four JSON inputs of the CLI: the module that reads each, and its
# argv with "@" for the file path.
JSON_INPUTS = {
    "simulate": ("cell", ["simulate", "--seed", "1", "--hours", "0.01", "--config", "@"]),
    "cost": ("economics", ["cost", "breakeven", "--a", "@"]),
    "plan": ("preservation", ["preserve", "plan", "@"]),
    "rates": ("preservation", ["preserve", "sample", "--n", "10", "--seed", "1", "--rates", "@"]),
}

MALFORMED_JSON = [
    ("plan", {"mould": "wet"}),
    ("plan", []),
    ("plan", {"blocking": "false"}),
    ("plan", {"bloking": True}),
    ("cost", {}),
    ("cost", "abc"),
    ("cost", {"per_scan_variable": 0.1, "fixed_items": [["scanner", 5000]]}),
    ("cost", {"per_scan_variable": 0.1, "fixed_total": 5, "weekly_capacity": "x"}),
    ("cost", {"per_scan_variable": 0.1, "fixed_items": [["scanner", 1, 1]], "fixed_totl": 5}),
    ("rates", {"mold": 0.1}),
    ("rates", []),
    # JSON true is not a money amount
    ("cost", {"per_scan_variable": True, "fixed_total": 100}),
    ("cost", {"per_scan_variable": 0.1, "fixed_total": True}),
    ("cost", {"per_scan_variable": 0.1, "fixed_items": [["x", True, 2]]}),
    # finite durations whose milliseconds pass the float range
    ("simulate", {"scan_seconds": 1e306}),
    ("simulate", {"reload_seconds": 1e306, "hopper_capacity": 1}),
    ("simulate", {"handling_time": {"kind": "fixed", "mean_seconds": 1e308}}),
    ("simulate", {"handling_time": {"kind": "uniform", "mean_seconds": 1e308, "spread": 0.5}}),
]


def run_json_input(name, payload):
    """Run one JSON-reading command on `payload`; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.json"
        path.write_text(json.dumps(payload))
        argv = [str(path) if token == "@" else token for token in JSON_INPUTS[name][1]]
        code, _, err = run_quietly(*argv)
    return code, err


@pytest.mark.parametrize("name, payload", MALFORMED_JSON, ids=lambda value: json.dumps(value))
def test_malformed_json_inputs_exit_2(name, payload):
    code, err = run_json_input(name, payload)
    assert code == 2
    assert err.startswith(f"{JSON_INPUTS[name][0]}: configuration error: ")
    assert "Traceback" not in err


# keys of the four inputs, so that generated objects reach the value checks
_FIELD_NAMES = sorted(
    {f.name for cls in (CellConfig, HandlingTime, PrintCondition, IssueRates) for f in fields(cls)}
    | {"per_scan_variable", "fixed_items", "fixed_total", "weekly_capacity"}
)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 400)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), 1e300])
    | st.sampled_from(["none", "dormant", "active", "minor", "fixed", "lognormal", "0.5", "x"])
)
JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=3), children, max_size=5),
    max_leaves=12,
)


def with_examples(examples):
    def decorate(test):
        for name, payload in examples:
            test = example(name=name, payload=payload)(test)
        return test

    return decorate


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(JSON_INPUTS)), payload=JSON_VALUES)
@with_examples(
    MALFORMED_JSON
    + [
        ("simulate", {"hopper_capacity": 300.0, "attendance": [["0", 9, 17]]}),
        ("simulate", {"scan_seconds": 10**400}),
        ("cost", {"per_scan_variable": "1/0", "fixed_total": 1}),
        ("rates", {"mould": True, "total_boxes": 16634.0}),
    ]
)
def test_json_inputs_never_raise(name, payload):
    code, err = run_json_input(name, payload)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# identifier-shaped text, so that generated strings reach every family
_NUMBER = st.sampled_from(["4", "0056", "64", "0000", "58\n", " 4"])
_WORD = st.sampled_from(["BC", "GH", "RAF", "HSL", "K17", "bc", "BC\n", ""])
_ID_TEXT = st.one_of(
    st.tuples(_NUMBER, _WORD, _NUMBER),
    st.tuples(_WORD, _WORD, _NUMBER),
    st.tuples(_WORD, _WORD, _NUMBER, _NUMBER),
).map("/".join)


@settings(max_examples=200, deadline=None)
@given(text=_ID_TEXT | st.text(max_size=16), usaaf=st.booleans())
@example(text="4/BC\n/0056", usaaf=False)
@example(text="4/BC/0056\n", usaaf=False)
@example(text="58\n/RAF/0456", usaaf=False)
@example(text="9" * 5000 + "/BC/0056", usaaf=False)
def test_parse_id_never_raises(text, usaaf):
    flags = ["--usaaf"] if usaaf else []
    # "--" keeps text such as "-h" an identifier rather than an option
    code, out, err = run_quietly("parse-id", *flags, "--", text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0 and not usaaf:
        canonical = json.loads(out)["canonical"]
        assert re.fullmatch("[A-Z0-9/]+", canonical)
        assert run_quietly("parse-id", canonical) == (0, out, "")


# The argv of every subcommand: its leading words, the options (or, under "",
# the positional) it needs, and those it may take, each with the values it may
# get. "@name" is a file or directory of `doc_dir`, or else a path in a scratch
# directory; None marks a flag.
_OUT = ["@x.out", "-", "", "@missing/x", "@rasters"]
_JSON = ["@cell.json", "@robotic.json", "@condition.json", "@rates.json", "@target.pgm",
         "@rasters", "@missing.json", ""]
_RASTER = ["@target.pgm", "@rasters", "@scan.pgm", "@cell.json", "@missing.pgm", ""]
_INT = ["0", "1", "14", "-3", "9" * 400, "1.5", "x"]
_FLOAT = ["0", "1", "27", "-1", "nan", "inf", "1e-308", "1e308", "x"]
_COUNT = ["0", "1", "3", "-2", "x"]  # counts kept small: they size the work
FUZZ_COMMANDS = [
    ("simulate", {"--seed": _INT, "--hours": ["0", "0.01", "2", "1e9", "-1", "nan", "x"]},
     {"--config": _JSON, "--trace": _OUT, "--report": _OUT}),
    ("throughput", {"--mode": ["robotic", "human_operated", "x"]}, {"--fleet": _INT, "--out": _OUT}),
    ("ratio", {}, {"--out": _OUT}),
    ("utilization", {"--observed-daily": _FLOAT, "--observed-weekly": _FLOAT},
     {"--scanners": _INT, "--out": _OUT}),
    ("cost", {"": ["curve", "breakeven", "halving", "weeks", "x"]},
     {"--a": _JSON, "--b": _JSON, "--start": _INT, "--stop": _INT, "--points": _COUNT,
      "--scans": _INT, "--capacity": _FLOAT, "--out": _OUT}),
    ("qc render", {"--out": _OUT},
     {"--ppi": ["300", "100", "1", "0", "-5", "nan", "1e-9", "1e308", "x"], "--seed": _INT,
      "--scale-error": ["0", "0.002", "-0.5", "-1", "3", "nan"],
      "--noise-sigma": ["0", "2", "-1", "nan"], "--blur-px": ["0", "1.5", "-1", "nan", "1e308"]}),
    ("qc analyze", {"": _RASTER}, {"--out": _OUT}),
    ("qc crop", {"": _RASTER, "--out": _OUT}, {"--border-mm": ["5", "0", "-1", "nan", "1e9", "1e308", "x"]}),
    ("parse-id", {"": ["4/BC/0056", "K17/LOCAL/NOTES", "x", "", "é"]},
     {"--usaaf": [None], "--out": _OUT}),
    ("preserve plan", {"": _JSON}, {"--out": _OUT}),
    ("preserve sample", {"--n": _COUNT, "--seed": _INT},
     {"--rates": _JSON, "--dependence": ["0", "-0.7", "-1", "2", "nan", "x"], "--csv": _OUT,
      "--out": _OUT}),
    ("photogrammetry scale", {},
     {"--focal-mm": _FLOAT, "--focal-in": _FLOAT, "--altitude-m": _FLOAT,
      "--altitude-ft": _FLOAT, "--out": _OUT}),
    ("photogrammetry feature", {"--lp-per-mm": _FLOAT}, {"--out": _OUT}),
    ("photogrammetry grd", {"--lp-per-mm": _FLOAT, "--scale-denominator": _FLOAT}, {"--out": _OUT}),
    ("photogrammetry pixel-range", {"--lp-per-mm": _FLOAT}, {"--out": _OUT}),
    ("photogrammetry adequacy", {"--ppi": _FLOAT, "--lp-per-mm": _FLOAT}, {"--out": _OUT}),
    ("photogrammetry storage", {"--images": _INT, "--bytes-per-image": _INT}, {"--out": _OUT}),
    ("paper-check", {}, {}),
]


@st.composite
def cli_argv(draw):
    words, required, optional = draw(st.sampled_from(FUZZ_COMMANDS))
    names = [*required, *(name for name in sorted(optional) if draw(st.booleans()))]
    options = {**required, **optional}
    argv = words.split()
    for name in draw(st.permutations(names)):
        value = draw(st.sampled_from(options[name]))
        argv += [name] if name else []
        argv += [value] if value is not None else []
    return argv + draw(st.lists(st.sampled_from(["-h", "--bogus", "extra", ""]), max_size=1))


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
@example(argv=["qc", "crop", "@target.pgm", "--border-mm", "nan", "--out", "@x.out"])
@example(argv=["qc", "render", "--ppi", "100", "--noise-sigma", "2", "--seed", "-3", "--out", "@x.out"])
def test_argv_never_raises(doc_dir, argv):
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(sim, "MAX_EVENTS", 20_000), \
            mock.patch.object(acceptance, "run_all", lambda: CANNED_CHECKS):
        cwd = os.getcwd()
        os.chdir(scratch)  # a PGM written to "-" stays in the scratch directory
        try:
            code, _, err = run_quietly(*(_resolve(token, doc_dir, Path(scratch)) for token in argv))
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
