import json

import pytest

from scancell.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "sortie_id" in err

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
        assert "scan_cell" in err

    @pytest.mark.parametrize("hours", ["nan", "inf"])
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
        assert "scan_cell: configuration error" in err
        assert "Traceback" not in err

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--config", str(tmp_path / "nope.json"), "--seed", "1",
            "--hours", "1",
        )
        assert code == 2


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
        assert "calibration_qc" in err


def test_unwritable_output_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "ratio", "--out", str(tmp_path / "missing_dir" / "ratio.json")
    )
    assert code == 1
    assert "i/o error" in err


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
