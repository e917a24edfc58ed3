"""End-to-end smoke test of the perf harness and the regression gate.

The full benchmark (``benchmarks/perf -m perf``) takes minutes; this
runs the same code path at smoke scale in seconds so tier-1 catches
harness breakage immediately.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    sys.path.insert(0, str(REPO_ROOT))
    try:
        from benchmarks.perf.harness import (
            PerfScale,
            append_trajectory,
            make_entry,
            run_perf_suite,
        )
    finally:
        sys.path.pop(0)
    tmp = tmp_path_factory.mktemp("perf-smoke")
    scale = PerfScale.smoke()
    results = run_perf_suite(scale, tmp / "cache")
    trajectory_path = tmp / "BENCH_perf.json"
    append_trajectory(trajectory_path, make_entry(scale, results))
    return results, trajectory_path


class TestHarnessSmoke:
    def test_all_metrics_present(self, smoke_run):
        results, _ = smoke_run
        for key in (
            "calls_cold_s", "calls_warm_s", "calls_warm_speedup",
            "corpus_cold_s", "corpus_warm_s", "corpus_warm_speedup",
            "calls_vec_s", "calls_vec_speedup",
            "corpus_vec_s", "corpus_vec_speedup",
            "sentiment_per_text_pps", "sentiment_batch_pps",
            "sentiment_batch_speedup",
            "analysis_columns_build_s", "analysis_curves_record_s",
            "analysis_curve_matrix_s", "analysis_curve_matrix_speedup",
            "analysis_signals_record_s", "analysis_signals_columnar_s",
            "analysis_signals_speedup", "analysis_timeline_cold_s",
            "analysis_timeline_warm_s", "analysis_timeline_reuse_speedup",
            "serving_soak_wall_s", "serving_p50_admitted_s",
            "serving_p99_admitted_s",
            "cluster_soak_wall_s", "cluster_p50_admitted_s",
            "cluster_p99_admitted_s", "cluster_shed_rate",
            "streaming_soak_wall_s", "streaming_records_per_wall_s",
            "streaming_detect_latency_s", "streaming_incremental_s",
            "streaming_naive_recompute_s", "streaming_incremental_speedup",
        ):
            assert key in results, key
            assert results[key] > 0

    def test_serving_phase_counters(self, smoke_run):
        results, _ = smoke_run
        assert results["serving_arrivals_n"] > 0
        # 5x-capacity overload must actually shed; the exact counts are
        # seed-derived, so a second smoke run reproduces them exactly.
        assert results["serving_shed"] > 0
        assert 0.0 < results["serving_shed_rate"] < 1.0
        assert results["serving_served"] > 0
        # Simulated latencies are bounded by queue depth x service time;
        # admitted queries never report more than their ~1s deadline
        # plus one attempt.
        assert results["serving_p99_admitted_s"] <= 1.2
        # The soak runs on a ManualClock: simulated seconds must dwarf
        # the wall seconds it took to execute.
        assert results["serving_simulated_s"] > 0

    def test_cluster_phase_counters(self, smoke_run):
        results, _ = smoke_run
        # The cluster soak crashes one of three replicas mid-spike: the
        # dead replica's queue fails terminally, the ring rebalances out
        # and back, and the cluster still serves through the outage.
        assert results["cluster_replicas_n"] == 3
        assert results["cluster_arrivals_n"] > 0
        assert results["cluster_served"] > 0
        assert results["cluster_failed"] > 0
        assert results["cluster_rebalances"] >= 2
        assert 0.0 < results["cluster_shed_rate"] < 1.0
        assert results["cluster_p99_admitted_s"] <= 1.2
        assert results["cluster_simulated_s"] > 0

    def test_streaming_phase_counters(self, smoke_run):
        results, _ = smoke_run
        assert results["streaming_deliveries_n"] > 0
        assert results["streaming_windows_n"] > 0
        # Detection latency is simulated time: seed-derived and bounded
        # by the degradation's scoring horizon (240s).
        assert 0.0 < results["streaming_detect_latency_s"] <= 240.0
        # The incremental operator must beat stateless recomputation
        # even at smoke scale; the 5x floor binds at full scale only.
        assert results["streaming_incremental_speedup"] > 1.0

    def test_analysis_counts(self, smoke_run):
        results, _ = smoke_run
        assert results["analysis_participants_n"] > 0
        assert results["analysis_signals_n"] >= (
            4 * results["analysis_participants_n"]
        )

    def test_vectorized_phase(self, smoke_run):
        # Fixed per-run overheads dominate at smoke scale, so the >=10x
        # / >=5x floors only bind at full scale (tools gate + -m perf);
        # here the vectorized engines just have to beat the record
        # paths at all and agree on row counts.
        results, _ = smoke_run
        assert results["calls_vec_speedup"] > 1.0
        assert results["corpus_vec_speedup"] > 1.0
        assert results["calls_vec_rows"] > 0
        assert results["corpus_vec_rows"] == results["corpus_n_posts"]

    def test_workloads_nonempty(self, smoke_run):
        results, _ = smoke_run
        assert results["calls_n"] > 0
        assert results["corpus_n_posts"] > 0
        assert results["sentiment_n_texts"] == results["corpus_n_posts"]

    def test_trajectory_written_and_readable(self, smoke_run):
        _, path = smoke_run
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == 1
        assert len(data["runs"]) == 1
        assert data["runs"][0]["scale"] == "smoke"
        assert data["runs"][0]["results"]["calls_cold_s"] > 0


class TestRegressionGate:
    def _run(self, path):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_bench_regression.py"),
             str(path)],
            capture_output=True, text=True,
        )

    def _trajectory(self, tmp_path, cold_values):
        runs = [
            {
                "scale": "full",
                "results": {"calls_cold_s": c, "corpus_cold_s": c},
            }
            for c in cold_values
        ]
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        return path

    def test_single_run_passes(self, tmp_path):
        assert self._run(self._trajectory(tmp_path, [1.0])).returncode == 0

    def test_within_threshold_passes(self, tmp_path):
        proc = self._run(self._trajectory(tmp_path, [1.0, 1.2]))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_regression_fails(self, tmp_path):
        proc = self._run(self._trajectory(tmp_path, [1.0, 1.5]))
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_missing_trajectory_is_not_an_error(self, tmp_path):
        # A fresh checkout has no BENCH_perf.json; the gate must pass
        # with a clear message, not fail the pipeline.
        proc = self._run(tmp_path / "nope.json")
        assert proc.returncode == 0
        assert "nothing to compare" in proc.stdout

    def test_malformed_trajectory_exits_2(self, tmp_path):
        bad = tmp_path / "BENCH_perf.json"
        bad.write_text("{not json")
        assert self._run(bad).returncode == 2

    def test_speedup_floor_violation_fails(self, tmp_path):
        runs = [{
            "scale": "full",
            "results": {
                "calls_cold_s": 1.0, "corpus_cold_s": 1.0,
                "calls_vec_speedup": 3.0, "corpus_vec_speedup": 8.0,
            },
        }]
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        proc = self._run(path)
        assert proc.returncode == 1
        assert "floor" in proc.stdout + proc.stderr

    def test_speedup_floor_satisfied_passes(self, tmp_path):
        runs = [{
            "scale": "full",
            "results": {
                "calls_cold_s": 1.0, "corpus_cold_s": 1.0,
                "calls_vec_speedup": 12.0, "corpus_vec_speedup": 8.0,
            },
        }]
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        proc = self._run(path)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_pre_vectorization_full_run_skips_floors(self, tmp_path):
        # Trajectory entries from before the vectorized engines carry
        # no *_vec_speedup keys; the floors must not fail them.
        assert self._run(self._trajectory(tmp_path, [1.0])).returncode == 0

    def test_millisecond_jitter_within_noise_floor_passes(self, tmp_path):
        # A 5x ratio on a 10ms phase is host-load jitter, not a code
        # regression: wall-clock metrics need both >30% and >0.1s.
        runs = [
            {"scale": "full", "results": {"analysis_signals_columnar_s": c}}
            for c in (0.010, 0.050)
        ]
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        proc = self._run(path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "noise floor" in proc.stdout

    def test_simulated_clock_metrics_have_no_noise_floor(self, tmp_path):
        # serving_*/cluster_* are seed-derived simulated-clock numbers;
        # any drift is a behaviour change, however small in "seconds".
        runs = [
            {"scale": "full", "results": {"serving_p50_admitted_s": c}}
            for c in (0.010, 0.050)
        ]
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        proc = self._run(path)
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_scales_not_compared(self, tmp_path):
        runs = [
            {"scale": "smoke", "results": {"calls_cold_s": 0.1,
                                           "corpus_cold_s": 0.1}},
            {"scale": "full", "results": {"calls_cold_s": 10.0,
                                          "corpus_cold_s": 10.0}},
        ]
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        assert self._run(path).returncode == 0
