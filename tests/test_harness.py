import math

import numpy as np
import pytest

from gradpipe.charts import padded_bounds
from gradpipe.cli import main
from gradpipe.compression import Codec
from gradpipe.errors import ConfigError
from gradpipe.harness import (
    BreakdownReport,
    ExperimentConfig,
    calibrate,
    calibration_text,
    compare_prediction,
    config_from_mapping,
    parse_breakdown_csv,
    parse_calibration,
    parse_kv_text,
    parse_metrics_csv,
    predict_iteration_time,
    prediction_table,
    run_experiment,
)
from gradpipe.timing import ClusterParams, StageTimes, ring_comm_time


def tiny_config(**overrides):
    base = dict(
        mode="d_sync",
        workers=2,
        iterations=12,
        learning_rate=0.1,
        batch_size=8,
        eval_interval=6,
        seed=7,
        synth_dim=8,
        synth_samples=400,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_kv_text(self):
        values = parse_kv_text(
            "# comment\nmode = pipe_sgd\n\nworkers=4 # trailing\nseed = 3\n"
        )
        assert values == {"mode": "pipe_sgd", "workers": "4", "seed": "3"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_kv_text("just words\n")

    def test_mapping_types(self):
        config = config_from_mapping(
            {
                "mode": "pipe_sgd",
                "workers": "4",
                "codec": "quant8",
                "depth": "2",
                "hidden": "32,16",
                "inject_alpha_ms": "1.5",
            }
        )
        assert config.mode == "pipe_sgd"
        assert config.codec is Codec.QUANT8
        assert config.hidden == (32, 16)
        assert config.latency_s == pytest.approx(0.0015)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"modee": "d_sync"})

    def test_validation_rules(self):
        with pytest.raises(ConfigError):
            tiny_config(dataset="mnist").validate()  # missing idx paths
        with pytest.raises(ConfigError):
            tiny_config(transport="tcp").validate()  # missing roster
        with pytest.raises(ConfigError):
            tiny_config(clock="sundial").validate()
        with pytest.raises(ConfigError):
            config_from_mapping({"mode": "who_knows"})

    def test_bandwidth_conversion(self):
        config = tiny_config(inject_mbps=100.0)
        assert config.byte_time_s == pytest.approx(8.0 / 100e6)
        assert tiny_config().byte_time_s == 0.0


class TestRunExperiment:
    def test_outputs_written(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        out = result.out_dir
        for name in ("metrics.csv", "breakdown.csv", "trace.csv", "summary.txt"):
            assert (out / name).exists()
        assert (out / "charts" / "accuracy_vs_wallclock.svg").exists()
        assert (out / "charts" / "breakdown.svg").exists()
        rows = parse_metrics_csv((out / "metrics.csv").read_text())
        assert len(rows) == config.iterations
        assert [r[0] for r in rows] == list(range(1, 13))
        walls = [r[1] for r in rows]
        assert walls == sorted(walls)
        # accuracy present exactly on eval rows
        assert [r[0] for r in rows if r[3] is not None] == [6, 12]
        reports = parse_breakdown_csv((out / "breakdown.csv").read_text())
        assert len(reports) == 1 and reports[0].mode == "d_sync"
        summary = (out / "summary.txt").read_text()
        assert "final_train_loss" in summary and "train_wall_s" in summary

    def test_trajectory_deterministic_real_clock(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert [r[2] for r in a.metrics_rows] == [r[2] for r in b.metrics_rows]
        assert [r[3] for r in a.metrics_rows] == [r[3] for r in b.metrics_rows]

    def test_logical_clock_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_config(clock="logical", out_dir=str(out_a)))
        run_experiment(tiny_config(clock="logical", out_dir=str(out_b)))
        assert (out_a / "metrics.csv").read_bytes() == (
            out_b / "metrics.csv"
        ).read_bytes()

    def test_loss_trends_down_convex(self):
        config = tiny_config(
            workers=1, iterations=100, learning_rate=0.1, batch_size=32,
            eval_interval=0, synth_samples=2000,
        )
        result = run_experiment(config)
        losses = [r[2] for r in result.metrics_rows]
        head = np.mean(losses[:10])
        tail = np.mean(losses[-10:])
        assert tail < 0.5 * head
        assert result.final_loss < head

    def test_preflight_batch_check(self):
        with pytest.raises(ConfigError, match="shard"):
            run_experiment(tiny_config(batch_size=399))

    def test_breakdown_accounts_for_thread_busy_time(self):
        result = run_experiment(tiny_config(iterations=30))
        b = result.breakdown
        busy = b.update_s + b.compute_s + b.communicate_s + b.idle_s
        # d_sync is single-threaded: per-iteration stage sums track the
        # wall within jitter + loop bookkeeping.
        assert busy <= b.iteration_wall_s * 1.10 + 1e-4
        assert busy >= b.iteration_wall_s * 0.5


class TestCalibrate:
    def test_recovers_injected_latency(self):
        config = tiny_config(inject_alpha_ms=1.0, iterations=1)
        stages, cluster = calibrate(config, reps=10, probe_bytes=1 << 16)
        assert 0.9e-3 <= cluster.latency_s <= 1.5e-3
        assert stages.backward > 0 and stages.forward > 0
        assert cluster.model_bytes == 4 * (8 * 2 + 2)

    def test_zero_model_comm_reduces_to_latency_terms(self):
        cluster = ClusterParams(
            workers=4, latency_s=2e-3, byte_time_s=1e-6, sync_time_s=5e-3,
            model_bytes=0.0,
        )
        assert ring_comm_time(cluster) == pytest.approx(2 * 3 * 2e-3 + 5e-3)

    def test_repeatable_within_tolerance(self):
        config = tiny_config(inject_alpha_ms=2.0, iterations=1)
        _, c1 = calibrate(config, reps=8, probe_bytes=1 << 14)
        _, c2 = calibrate(config, reps=8, probe_bytes=1 << 14)
        assert abs(c1.latency_s - c2.latency_s) <= 0.2 * max(
            c1.latency_s, c2.latency_s
        )

    def test_calibration_roundtrip_through_text(self):
        stages = StageTimes(
            update=1e-4, forward=2e-3, backward=4e-3,
            first_segment_backward=4e-3, comm=6e-3,
        )
        cluster = ClusterParams(
            workers=4, latency_s=1e-3, byte_time_s=1e-8, reduce_time_s=1e-9,
            sync_time_s=2e-3, model_bytes=5200.0,
        )
        text = calibration_text(stages, cluster)
        stages2, cluster2 = parse_calibration(parse_kv_text(text))
        assert cluster2 == cluster
        assert stages2.update == pytest.approx(stages.update)
        assert stages2.comm == pytest.approx(stages.comm)


class TestComparePrediction:
    def make_pair(self):
        stages = StageTimes(
            update=1e-4, forward=1e-3, backward=2e-3,
            first_segment_backward=2e-3, comm=8e-3,
        )
        cluster = ClusterParams(
            workers=4, latency_s=1e-3, byte_time_s=1e-9, reduce_time_s=0.0,
            sync_time_s=1e-3, model_bytes=1e5,
        )
        return stages, cluster

    def test_exact_measurement_has_zero_error(self):
        stages, cluster = self.make_pair()
        predicted = predict_iteration_time("d_sync", 1, 100, stages, cluster)
        report = BreakdownReport(
            mode="d_sync", workers=4, iterations=100, depth=1, codec="none",
            update_s=0, compute_s=0, communicate_s=0, idle_s=0,
            iteration_wall_s=predicted, final_accuracy=0.9,
        )
        rows = compare_prediction([report], stages, cluster)
        assert rows[0].rel_error == pytest.approx(0.0)
        assert not rows[0].flagged
        assert rows[0].bound == "communication"

    def test_pipe_prediction_includes_fill_correction(self):
        stages, cluster = self.make_pair()
        bound_per_iter = max(
            stages.update + stages.compute, ring_comm_time(cluster)
        )
        predicted = predict_iteration_time("pipe_sgd", 2, 50, stages, cluster)
        assert predicted == pytest.approx(bound_per_iter * 51 / 50)

    def test_flagging_threshold(self):
        stages, cluster = self.make_pair()
        predicted = predict_iteration_time("d_sync", 1, 100, stages, cluster)
        report = BreakdownReport(
            mode="d_sync", workers=4, iterations=100, depth=1, codec="none",
            update_s=0, compute_s=0, communicate_s=0, idle_s=0,
            iteration_wall_s=predicted * 1.4, final_accuracy=0.9,
        )
        rows = compare_prediction([report], stages, cluster)
        assert rows[0].flagged

    def test_worker_mismatch_rejected(self):
        stages, cluster = self.make_pair()
        report = BreakdownReport(
            mode="d_sync", workers=2, iterations=10, depth=1, codec="none",
            update_s=0, compute_s=0, communicate_s=0, idle_s=0,
            iteration_wall_s=1.0, final_accuracy=0.5,
        )
        with pytest.raises(ConfigError):
            compare_prediction([report], stages, cluster)

    def test_prediction_table_contents(self):
        stages, cluster = self.make_pair()
        text, csv_text = prediction_table(100, 2, stages, cluster)
        assert "sync_total" in text and "recommendation" in text
        assert csv_text.splitlines()[0] == "quantity,value"
        assert any(l.startswith("pipe_segmented,") for l in csv_text.splitlines())


class TestChartsBounds:
    def test_padded_bounds_rule(self):
        lo, hi = padded_bounds([2.0, 10.0])
        assert lo == pytest.approx(2.0 - 0.4)
        assert hi == pytest.approx(10.0 + 0.4)

    def test_degenerate_range(self):
        lo, hi = padded_bounds([5.0, 5.0])
        assert lo < 5.0 < hi

    def test_bounds_embedded_in_svg(self, tmp_path):
        from gradpipe.charts import accuracy_chart

        rows = [
            (1, 10.0, 0.9, 0.50),
            (2, 20.0, 0.8, None),
            (3, 30.0, 0.7, 0.75),
        ]
        out = tmp_path / "chart.svg"
        accuracy_chart([("runA", rows)], out)
        svg = out.read_text()
        xs, ys = [10.0, 30.0], [0.50, 0.75]
        x0, x1 = padded_bounds(xs)
        y0, y1 = padded_bounds(ys)
        assert f"<!-- bounds {x0:.9g} {x1:.9g} {y0:.9g} {y1:.9g} -->" in svg

    def test_single_point_chart(self, tmp_path):
        from gradpipe.charts import accuracy_chart

        out = tmp_path / "one.svg"
        accuracy_chart([("solo", [(1, 5.0, 0.3, 0.9)])], out)
        assert "<circle" in out.read_text()

    def test_two_series_distinct_styles(self, tmp_path):
        from gradpipe.charts import accuracy_chart

        rows_a = [(1, 1.0, 0.5, 0.5), (2, 2.0, 0.4, 0.6)]
        rows_b = [(1, 1.0, 0.5, 0.55), (2, 2.0, 0.4, 0.7)]
        out = tmp_path / "two.svg"
        accuracy_chart([("alpha", rows_a), ("beta", rows_b)], out)
        svg = out.read_text()
        assert "alpha" in svg and "beta" in svg
        assert '#1f77b4' in svg and '#d62728' in svg

    def test_empty_input_rejected(self, tmp_path):
        from gradpipe.charts import accuracy_chart

        with pytest.raises(ConfigError):
            accuracy_chart([("void", [])], tmp_path / "x.svg")


class TestCli:
    def run_ok(self, tmp_path, extra=()):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--mode", "d_sync", "--workers", "2", "--iters", "10",
                "--batch-size", "8", "--seed", "3", "--out", str(out),
                "--eval-interval", "5", *extra,
            ]
        )
        return code, out

    def test_run_success(self, tmp_path, capsys):
        code, out = self.run_ok(tmp_path)
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert "final loss" in capsys.readouterr().out

    def test_run_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode = pipe_sgd\nworkers = 2\niterations = 8\nbatch_size = 8\n")
        out = tmp_path / "cfgout"
        code = main(["run", "--config", str(cfg), "--mode", "d_sync", "--out", str(out)])
        assert code == 0
        assert "mode = d_sync" in (out / "summary.txt").read_text()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--workers", "0"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_roster_exit_code(self):
        assert main(["run", "--transport", "tcp"]) == 2

    def test_unreachable_tcp_peer_exit_code(self, tmp_path, monkeypatch):
        import gradpipe.transport as transport

        monkeypatch.setattr(transport, "DEFAULT_CONNECT_TIMEOUT_S", 1.0)
        roster = tmp_path / "roster.txt"
        roster.write_text("127.0.0.1:1\n127.0.0.1:2\n")
        code = main(
            [
                "run", "--transport", "tcp", "--roster", str(roster),
                "--workers", "2", "--rank", "1", "--iters", "2",
                "--batch-size", "8",
            ]
        )
        assert code == 3

    def test_calibrate_predict_compare_pipeline(self, tmp_path, capsys):
        cal = tmp_path / "cal.cfg"
        code = main(
            [
                "calibrate", "--workers", "2", "--inject-alpha-ms", "1.0",
                "--batch-size", "8", "--out-file", str(cal),
            ]
        )
        assert code == 0
        assert cal.exists()

        code = main(["predict", "--params", str(cal), "--iters", "100", "--k", "2"])
        assert code == 0
        assert "recommendation" in capsys.readouterr().out

        # measured == predicted -> exit 0; wildly off -> exit 4
        stages, cluster = parse_calibration(parse_kv_text(cal.read_text()))
        good = predict_iteration_time("d_sync", 1, 100, stages, cluster)
        breakdown = tmp_path / "b.csv"
        from gradpipe.harness import BREAKDOWN_HEADER

        row = BreakdownReport(
            mode="d_sync", workers=2, iterations=100, depth=1, codec="none",
            update_s=0, compute_s=0, communicate_s=0, idle_s=0,
            iteration_wall_s=good, final_accuracy=1.0,
        )
        breakdown.write_text(BREAKDOWN_HEADER + "\n" + row.csv_row() + "\n")
        assert main(["compare", "--params", str(cal), "--measured", str(breakdown)]) == 0
        row.iteration_wall_s = good * 2.0
        breakdown.write_text(BREAKDOWN_HEADER + "\n" + row.csv_row() + "\n")
        assert main(["compare", "--params", str(cal), "--measured", str(breakdown)]) == 4

    def test_chart_command(self, tmp_path):
        code, out = self.run_ok(tmp_path)
        assert code == 0
        chart_dir = tmp_path / "charts"
        code = main(
            [
                "chart", "--metrics", str(out / "metrics.csv"),
                "--breakdown", str(out / "breakdown.csv"),
                "--out", str(chart_dir),
            ]
        )
        assert code == 0
        assert (chart_dir / "accuracy_vs_wallclock.svg").exists()
        assert (chart_dir / "loss_vs_wallclock.svg").exists()
        assert (chart_dir / "breakdown.svg").exists()

    def test_chart_requires_input(self, tmp_path):
        assert main(["chart", "--out", str(tmp_path / "c")]) == 2
