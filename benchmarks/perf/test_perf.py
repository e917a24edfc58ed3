"""Perf benchmark suite (opt-in: ``-m perf``).

Runs the full-scale harness, appends to the repo-root trajectory file
and asserts the PR's headline performance contracts:

* a warm (cache-hit) load is at least 5x faster than cold generation;
* the batch sentiment path beats per-text scoring;
* the vectorized block engines beat the record-path factories: >= 10x
  on the call dataset, >= 5x on the corpus (same serial configs, row
  counts asserted equal inside the harness);
* the single-pass ``curve_matrix`` beats the per-curve loop by >= 5x;
* the bulk columnar signal export beats the record loop;
* the serving soak holds its overload contract: a sustained
  5x-capacity spike sheds most load, still serves admitted queries
  inside their deadline, and accounts for every arrival exactly once;
* the cluster soak holds the same contract *under replica loss*: one
  replica crashes mid-spike, the router fails over and rebalances, and
  admitted-latency percentiles stay bounded while the cluster-wide
  ledger closes exactly once per query.

Excluded from tier-1 by default — select with::

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf -q
"""

from __future__ import annotations

import pytest

from benchmarks.perf.harness import (
    DEFAULT_TRAJECTORY,
    PerfScale,
    append_trajectory,
    format_results,
    make_entry,
    run_perf_suite,
)

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def perf_results(tmp_path_factory):
    scale = PerfScale.full()
    cache_root = tmp_path_factory.mktemp("perf-cache")
    results = run_perf_suite(scale, cache_root)
    append_trajectory(DEFAULT_TRAJECTORY, make_entry(scale, results))
    print("\n" + format_results(results))
    return results


class TestPerfContracts:
    def test_warm_calls_at_least_5x_cold(self, perf_results):
        assert perf_results["calls_warm_speedup"] >= 5.0

    def test_warm_corpus_at_least_5x_cold(self, perf_results):
        assert perf_results["corpus_warm_speedup"] >= 5.0

    def test_batch_sentiment_beats_per_text(self, perf_results):
        assert perf_results["sentiment_batch_speedup"] > 1.0

    def test_throughput_reported(self, perf_results):
        assert perf_results["sentiment_batch_pps"] > 0
        assert perf_results["calls_n"] > 0
        assert perf_results["corpus_n_posts"] > 0

    def test_curve_matrix_at_least_5x_per_curve_loop(self, perf_results):
        assert perf_results["analysis_curve_matrix_speedup"] >= 5.0

    def test_columnar_signals_beat_record_loop(self, perf_results):
        assert perf_results["analysis_signals_speedup"] > 1.0

    def test_vectorized_calls_at_least_10x_record(self, perf_results):
        # The PR 7 headline: the block engine replaces ~30 small RNG
        # calls per participant with a handful of array draws per
        # width bucket.  10x leaves ~30% headroom under the measured
        # ~14x, so host noise cannot trip it.
        assert perf_results["calls_vec_speedup"] >= 10.0
        # Row-count equality vs the record dataset is asserted inside
        # the harness before the speedup is recorded.
        assert perf_results["calls_vec_rows"] > 0

    def test_vectorized_corpus_at_least_5x_record(self, perf_results):
        assert perf_results["corpus_vec_speedup"] >= 5.0
        assert perf_results["corpus_vec_rows"] == (
            perf_results["corpus_n_posts"]
        )

    def test_serving_soak_sheds_under_overload(self, perf_results):
        # At 5x capacity with a bounded queue, most arrivals must shed
        # but the server keeps serving at full throughput.
        assert perf_results["serving_shed_rate"] > 0.5
        assert perf_results["serving_served"] > 0

    def test_serving_admitted_latency_bounded(self, perf_results):
        # Admitted queries finish within ~deadline (1s) + one attempt.
        assert perf_results["serving_p99_admitted_s"] <= 1.2
        assert perf_results["serving_p50_admitted_s"] > 0

    def test_serving_soak_is_simulated(self, perf_results):
        # 20 simulated seconds of overload should cost well under that
        # in wall time — the whole point of the ManualClock soak.
        assert perf_results["serving_simulated_s"] >= (
            perf_results["serving_soak_wall_s"]
        )

    def test_cluster_soak_sheds_but_serves_through_replica_loss(
        self, perf_results
    ):
        # 5x cluster capacity with a mid-spike crash: most load sheds,
        # queued work on the dead replica fails terminally, yet the
        # cluster keeps serving and the ring rebalances out and back.
        assert perf_results["cluster_shed_rate"] > 0.5
        assert perf_results["cluster_served"] > 0
        assert perf_results["cluster_failed"] > 0
        assert perf_results["cluster_rebalances"] >= 2

    def test_cluster_admitted_latency_bounded_under_failover(
        self, perf_results
    ):
        # Failover must not let admitted queries blow their budget:
        # ~deadline (1s) + one attempt, same bound as the single server.
        assert perf_results["cluster_p99_admitted_s"] <= 1.2
        assert perf_results["cluster_p50_admitted_s"] > 0

    def test_cluster_soak_is_simulated(self, perf_results):
        assert perf_results["cluster_simulated_s"] >= (
            perf_results["cluster_soak_wall_s"]
        )
