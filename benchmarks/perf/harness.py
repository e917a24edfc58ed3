"""Perf timing suite: cold/warm generation, throughput, per-phase speedups.

The suite measures the three levers this repo pulls for scale:

* **cold vs warm** — full simulation against a content-addressed
  cache hit for both data factories;
* **vectorized generation** — the block engines
  (:mod:`repro.telemetry.vectorized`, :mod:`repro.social.vectorized`)
  against the record-at-a-time factories, on the same serial config.
  Each engine is timed immediately after its record cold run (same
  load window), with prior phases' survivors frozen out of the GC
  generations and best-of-two on the sub-second vec side (see
  ``_timed_vec``).  Row counts are asserted equal (daily corpus
  volumes and call widths are draw-identical across engines) before
  the speedup is recorded; the regression gate enforces a 5x floor on
  both speedups at full scale;
* **sentiment throughput** — per-text scoring against the batch
  (memoised) path, in posts/sec over a generated corpus;
* **analysis phase** — the columnar read paths
  (:mod:`repro.perf.columnar`) against the record-at-a-time oracles
  kept in ``tests/``: column-block build cost, the single-pass
  :func:`~repro.engagement.curve_matrix` against per-curve record
  loops, bulk signal export, and the shared-sentiment-block timeline
  reuse.  Each speedup is only recorded after asserting the outputs
  are equal;
* **serving phase** — a deterministic overload soak
  (:mod:`repro.serving.soak`) at 5x capacity on a ``ManualClock``:
  shed rate and p50/p99 *admitted* latency are simulated-clock
  quantities derived purely from the seed, so they are byte-stable
  across hosts and any drift is a real behaviour change, not noise.
  The wall-clock cost of running the soak is recorded separately;
* **cluster phase** — the same discipline against a 3-replica
  :class:`~repro.serving.cluster.UsaasCluster` with one replica
  crashing mid-spike: the recorded shed rate and p50/p99 admitted
  latency are measured *under replica loss* (failover, ring
  rebalance, queue loss), again purely seed-derived and guarded by
  the regression gate;
* **streaming phase** — the watermark/checkpoint ingestion pipeline
  (:mod:`repro.streaming`) under seeded arrival chaos: wall-clock
  throughput in deliveries/sec, the *simulated-time* latency from an
  injected degradation to its experience change point (seed-derived,
  byte-stable, regression-guarded), and the incremental
  sliding-window operator against a stateless consumer that recomputes
  :func:`~repro.streaming.batch_window_aggregates` from the full
  prefix at every slide boundary — outputs asserted equal before the
  speedup is recorded;
* **prediction phase** — the columnar MOS predictor
  (:mod:`repro.prediction`) against the record-at-a-time
  ``MosPredictor`` oracle (``tests/prediction/oracle.py``) on a
  rating-rich replay of the call workload: training cost, batched
  inference speedup and rows/sec (weights and predictions asserted
  byte-identical first; the gate enforces a 20x speedup and 100k
  rows/sec floor at full scale), MAE/bias against the simulator's
  experienced-QoE ground truth (asserted no worse than the E-model
  prior), and an over-capacity coalesced ``predict_mos`` soak on a
  ``ManualClock`` whose p99 latency is seed-derived, byte-stable and
  regression-guarded;
* **integrity phase** — the trust-weighted robust aggregation path
  (:mod:`repro.integrity`) on a seeded fraud-contaminated replay: the
  naive columnar mean against the full score-raters -> weight ->
  trimmed-mean pipeline (overhead ratio and rows/sec, floored by the
  gate at full scale), plus the *simulated-time* latency from the
  start of a constant-value flood to the online trust gate's first
  quarantine (seed-derived, byte-stable, regression-guarded).

Results append to a machine-readable trajectory file
(``BENCH_perf.json`` at the repo root) so subsequent PRs can show
deltas; ``tools/check_bench_regression.py`` compares the last two
entries and fails on a >30 % cold-path regression.

Run standalone::

    PYTHONPATH=src python -m benchmarks.perf.harness --out BENCH_perf.json
    PYTHONPATH=src python -m benchmarks.perf.harness --scale smoke --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_TRAJECTORY = REPO_ROOT / "BENCH_perf.json"
TRAJECTORY_SCHEMA = 1


@dataclass(frozen=True)
class PerfScale:
    """Workload sizes for one harness run."""

    name: str
    n_calls: int
    corpus_start: dt.date
    corpus_end: dt.date
    author_pool_size: int
    seed: int = 20231128
    soak_duration_s: float = 4.0

    @classmethod
    def full(cls) -> "PerfScale":
        """The committed-benchmark scale (minutes, not seconds)."""
        return cls(
            name="full",
            n_calls=300,
            corpus_start=dt.date(2022, 1, 1),
            corpus_end=dt.date(2022, 12, 31),
            author_pool_size=1500,
            soak_duration_s=20.0,
        )

    @classmethod
    def smoke(cls) -> "PerfScale":
        """A seconds-scale run for CI smoke tests."""
        return cls(
            name="smoke",
            n_calls=12,
            corpus_start=dt.date(2022, 3, 1),
            corpus_end=dt.date(2022, 3, 21),
            author_pool_size=120,
            soak_duration_s=4.0,
        )


def _timed(fn: Callable[[], Any]) -> Dict[str, Any]:
    start = time.perf_counter()
    value = fn()
    return {"seconds": time.perf_counter() - start, "value": value}


def _timed_vec(fn: Callable[[], Any]) -> Dict[str, Any]:
    """Time a vectorized engine fairly against its record counterpart.

    The record cold run executes on whatever heap the suite has built
    up so far; a collect + freeze moves those survivors out of the
    collector's generations so the timed region is not billed for
    full-GC passes over *earlier phases'* objects (with the full-scale
    corpus alive, those passes otherwise triple the measured time).
    The engine runs twice and the best time is kept: the vec side is
    sub-second, so the repeat is cheap insurance against scheduler
    noise that the multi-second record run naturally averages over.
    """
    gc.collect()
    gc.freeze()
    try:
        first = _timed(fn)
        second = _timed(fn)
    finally:
        gc.unfreeze()
    best = first if first["seconds"] <= second["seconds"] else second
    return best


def _hold(name: str, verdict) -> None:
    """Raise unless a soak report's verdict passed, with its lines."""
    if verdict.exit_code:
        raise AssertionError(
            f"{name} soak exit {verdict.exit_code}: "
            + "; ".join(verdict.lines)
        )


def run_perf_suite(
    scale: PerfScale,
    cache_root: Path,
) -> Dict[str, Any]:
    """Run every measurement once and return the results dict.

    ``cache_root`` should be empty (or absent) so the first generation
    is genuinely cold; the warm numbers then measure a real cache hit.
    """
    from repro.nlp.sentiment import SentimentAnalyzer
    from repro.perf import ArtifactCache
    from repro.social import CorpusConfig, CorpusGenerator
    from repro.telemetry import CallDatasetGenerator, GeneratorConfig

    cache = ArtifactCache(cache_root)
    results: Dict[str, Any] = {}

    # --- call dataset: cold, vectorized, warm ----------------------------
    calls_config = GeneratorConfig(n_calls=scale.n_calls, seed=scale.seed)
    cold = _timed(lambda: CallDatasetGenerator(calls_config).generate())
    calls_dataset = cold["value"]
    results["calls_cold_s"] = cold["seconds"]
    results["calls_n"] = len(calls_dataset)

    # --- vectorized calls: block engine vs the record path ---------------
    # Timed back-to-back with the cold run (same load window, similar
    # heap) so the speedup compares like with like.  Import first so
    # module import cost is not billed (the engines defer scipy to the
    # first simulate call, so warm it explicitly too).
    import scipy.signal  # noqa: F401
    import scipy.special  # noqa: F401

    import repro.telemetry.vectorized  # noqa: F401

    vec_calls = _timed_vec(
        lambda: CallDatasetGenerator(calls_config).generate_columns()
    )
    calls_cols = vec_calls["value"]
    if len(calls_cols) != calls_dataset.n_participants:
        raise AssertionError(
            f"vectorized calls produced {len(calls_cols)} rows; record "
            f"path produced {calls_dataset.n_participants} participants"
        )
    results["calls_vec_s"] = vec_calls["seconds"]
    results["calls_vec_rows"] = len(calls_cols)
    results["calls_vec_speedup"] = results["calls_cold_s"] / max(
        1e-9, vec_calls["seconds"]
    )
    # Free the block: later phases' timings predate the vec phase and
    # must not inherit its heap.
    del calls_cols, vec_calls

    prime = _timed(
        lambda: CallDatasetGenerator(calls_config).generate(cache=cache)
    )
    results["calls_prime_s"] = prime["seconds"]  # miss: build + persist
    warm = _timed(
        lambda: CallDatasetGenerator(calls_config).generate(cache=cache)
    )
    results["calls_warm_s"] = warm["seconds"]
    results["calls_warm_speedup"] = cold["seconds"] / max(1e-9, warm["seconds"])

    # --- corpus: cold, vectorized, warm ----------------------------------
    corpus_config = CorpusConfig(
        seed=scale.seed,
        span_start=scale.corpus_start,
        span_end=scale.corpus_end,
        author_pool_size=scale.author_pool_size,
    )
    cold = _timed(lambda: CorpusGenerator(corpus_config).generate())
    corpus = cold["value"]
    results["corpus_cold_s"] = cold["seconds"]
    results["corpus_n_posts"] = len(corpus)

    # --- vectorized corpus: block engine vs the record path --------------
    import repro.social.vectorized  # noqa: F401

    vec_corpus = _timed_vec(
        lambda: CorpusGenerator(corpus_config).generate_columns()
    )
    corpus_cols = vec_corpus["value"]
    if len(corpus_cols) != len(corpus):
        # Daily post counts are draw-identical between the two engines,
        # so the totals must agree exactly.
        raise AssertionError(
            f"vectorized corpus produced {len(corpus_cols)} rows; record "
            f"path produced {len(corpus)} posts"
        )
    results["corpus_vec_s"] = vec_corpus["seconds"]
    results["corpus_vec_rows"] = len(corpus_cols)
    results["corpus_vec_speedup"] = results["corpus_cold_s"] / max(
        1e-9, vec_corpus["seconds"]
    )
    del corpus_cols, vec_corpus  # see the calls phase note

    prime = _timed(lambda: CorpusGenerator(corpus_config).generate(cache=cache))
    results["corpus_prime_s"] = prime["seconds"]
    warm = _timed(lambda: CorpusGenerator(corpus_config).generate(cache=cache))
    results["corpus_warm_s"] = warm["seconds"]
    results["corpus_warm_speedup"] = cold["seconds"] / max(
        1e-9, warm["seconds"]
    )

    # --- sentiment throughput: per-text vs batch ------------------------
    texts = [post.full_text for post in corpus]
    analyzer = SentimentAnalyzer()
    per_text = _timed(lambda: [analyzer.score(t) for t in texts])
    batch = _timed(lambda: analyzer.score_many(texts))
    if per_text["value"] != batch["value"]:
        raise AssertionError("batch sentiment diverged from per-text scoring")
    results["sentiment_n_texts"] = len(texts)
    results["sentiment_per_text_s"] = per_text["seconds"]
    results["sentiment_batch_s"] = batch["seconds"]
    results["sentiment_per_text_pps"] = len(texts) / max(
        1e-9, per_text["seconds"]
    )
    results["sentiment_batch_pps"] = len(texts) / max(1e-9, batch["seconds"])
    results["sentiment_batch_speedup"] = per_text["seconds"] / max(
        1e-9, batch["seconds"]
    )

    # --- analysis phase: columnar read paths vs record oracles ----------
    from repro.analysis.sentiment_timeline import sentiment_timeline
    from repro.core.usaas import telemetry_signals
    from repro.engagement import (
        DEFAULT_EDGES,
        control_windows_except,
        curve_matrix,
    )
    from repro.perf.columnar import participant_columns
    from repro.telemetry.schema import ENGAGEMENT_METRICS
    from tests.engagement.oracle import engagement_curve_records
    from tests.usaas.oracle import telemetry_signals_records

    build = _timed(lambda: participant_columns(calls_dataset))
    cols = build["value"]
    results["analysis_columns_build_s"] = build["seconds"]
    results["analysis_participants_n"] = len(cols)

    participants = [p for call in calls_dataset for p in call.participants]
    windows = {m: control_windows_except(m) for m in DEFAULT_EDGES}

    def record_curves() -> Dict[str, Dict[str, Any]]:
        return {
            nm: {
                em: engagement_curve_records(
                    participants, nm, em, DEFAULT_EDGES[nm],
                    control_windows=windows[nm], min_bin_count=5,
                )
                for em in ENGAGEMENT_METRICS
            }
            for nm in DEFAULT_EDGES
        }

    record = _timed(record_curves)
    results["analysis_curves_record_s"] = record["seconds"]
    matrix = _timed(lambda: curve_matrix(
        cols, dict(DEFAULT_EDGES),
        engagement_metrics=list(ENGAGEMENT_METRICS),
        control_windows=windows, min_bin_count=5,
    ))
    results["analysis_curve_matrix_s"] = matrix["seconds"]
    for nm in DEFAULT_EDGES:
        for em in ENGAGEMENT_METRICS:
            a = record["value"][nm][em]
            b = matrix["value"][nm][em]
            if (a.stat.tobytes() != b.stat.tobytes()
                    or a.counts.tobytes() != b.counts.tobytes()):
                raise AssertionError(
                    f"curve_matrix diverged from the record oracle "
                    f"for {nm}/{em}"
                )
    results["analysis_curve_matrix_speedup"] = record["seconds"] / max(
        1e-9, matrix["seconds"]
    )

    rec_sig = _timed(
        lambda: telemetry_signals_records(calls_dataset, network="starlink")
    )
    col_sig = _timed(
        lambda: telemetry_signals(calls_dataset, network="starlink")
    )
    if list(rec_sig["value"]) != list(col_sig["value"]):
        raise AssertionError("columnar signal export diverged from records")
    results["analysis_signals_n"] = len(col_sig["value"])
    results["analysis_signals_record_s"] = rec_sig["seconds"]
    results["analysis_signals_columnar_s"] = col_sig["seconds"]
    results["analysis_signals_speedup"] = rec_sig["seconds"] / max(
        1e-9, col_sig["seconds"]
    )

    timeline_cold = _timed(lambda: sentiment_timeline(corpus))
    timeline_warm = _timed(lambda: sentiment_timeline(corpus))
    results["analysis_timeline_cold_s"] = timeline_cold["seconds"]
    results["analysis_timeline_warm_s"] = timeline_warm["seconds"]
    results["analysis_timeline_reuse_speedup"] = timeline_cold[
        "seconds"
    ] / max(1e-9, timeline_warm["seconds"])

    # --- serving phase: deterministic overload soak ---------------------
    from repro.core.usaas import UsaasQuery
    from repro.resilience import FaultPlan, ManualClock
    from repro.resilience.faults import LoadSpikeSpec
    from repro.serving import UsaasServer, run_soak
    from repro.serving.soak import (
        estimated_service_time_s,
        synthetic_soak_service,
    )

    slow_s = 0.05

    def soak_once():
        clock = ManualClock()
        plan = FaultPlan(seed=scale.seed, clock=clock)
        service = synthetic_soak_service(plan, slow_s=slow_s)
        rate = 5.0 / estimated_service_time_s(slow_s)
        arrivals = plan.load_spikes("perf-soak", LoadSpikeSpec(
            rate_per_s=rate,
            duration_s=scale.soak_duration_s,
            priority_mix=(
                ("interactive", 0.6), ("batch", 0.3), ("monitoring", 0.1),
            ),
            deadline_s=1.0,
        ))
        server = UsaasServer(service, max_pending=8, shed_policy="priority")
        query = UsaasQuery(network="starlink", service="teams")
        return run_soak(server, arrivals, query_for=lambda arrival: query)

    soak = _timed(soak_once)
    report = soak["value"]
    _hold("serving", report.verdict())
    results["serving_soak_wall_s"] = soak["seconds"]
    results["serving_arrivals_n"] = report.arrivals
    results["serving_served"] = report.served
    results["serving_served_degraded"] = report.served_degraded
    results["serving_shed"] = report.shed
    results["serving_deadline_exceeded"] = report.deadline_exceeded
    results["serving_shed_rate"] = report.shed_rate
    # Simulated-clock latency of *admitted* queries: purely seed-derived,
    # so these two are guarded by the regression gate — any drift is a
    # behaviour change in admission/deadline/shedding, never host noise.
    results["serving_p50_admitted_s"] = report.metrics.p50_latency_s()
    results["serving_p99_admitted_s"] = report.metrics.p99_latency_s()
    results["serving_simulated_s"] = report.final_clock_s
    results["serving_arrivals_per_wall_s"] = report.arrivals / max(
        1e-9, soak["seconds"]
    )

    # --- cluster phase: failover soak under replica loss ----------------
    from repro.resilience import ReplicaFaultSpec
    from repro.serving import run_cluster_soak, synthetic_cluster

    n_replicas = 3

    def cluster_soak_once():
        cluster, cluster_plan = synthetic_cluster(
            seed=scale.seed, n_replicas=n_replicas, slow_s=slow_s,
        )
        rate = 5.0 * n_replicas / estimated_service_time_s(slow_s)
        arrivals = cluster_plan.cluster_load_spikes(
            "perf-cluster-soak",
            LoadSpikeSpec(
                rate_per_s=rate,
                duration_s=scale.soak_duration_s,
                priority_mix=(
                    ("interactive", 0.6), ("batch", 0.3),
                    ("monitoring", 0.1),
                ),
                deadline_s=1.0,
            ),
            tenant_mix=(("alpha", 2.0), ("beta", 1.0)),
        )
        # One replica crashes mid-spike and recovers for the tail, so
        # the recorded p99 is the *failover* p99, not the healthy one.
        events = cluster_plan.replica_faults(
            "perf-cluster-soak",
            ReplicaFaultSpec(
                replica="r1", kind="crash",
                at_s=scale.soak_duration_s * 0.375,
                down_s=scale.soak_duration_s * 0.25,
            ),
        )
        query = UsaasQuery(network="starlink", service="teams")
        return run_cluster_soak(
            cluster, arrivals, events, query_for=lambda arrival: query
        )

    cluster_soak = _timed(cluster_soak_once)
    cluster_report = cluster_soak["value"]
    _hold("cluster", cluster_report.verdict())
    results["cluster_soak_wall_s"] = cluster_soak["seconds"]
    results["cluster_replicas_n"] = n_replicas
    results["cluster_arrivals_n"] = cluster_report.arrivals
    results["cluster_served"] = cluster_report.served
    results["cluster_served_degraded"] = cluster_report.served_degraded
    results["cluster_shed"] = cluster_report.shed
    results["cluster_failed"] = cluster_report.failed
    results["cluster_rebalances"] = cluster_report.metrics.rebalances
    # Seed-derived simulated-clock quantities under replica loss; all
    # three are guarded by the regression gate, so drift means routing /
    # failover / quota behaviour changed, never host noise.
    results["cluster_shed_rate"] = cluster_report.shed_rate
    results["cluster_p50_admitted_s"] = cluster_report.metrics.p50_admitted_s()
    results["cluster_p99_admitted_s"] = cluster_report.metrics.p99_admitted_s()
    results["cluster_simulated_s"] = cluster_report.final_router_clock_s
    results["cluster_arrivals_per_wall_s"] = cluster_report.arrivals / max(
        1e-9, cluster_soak["seconds"]
    )

    # --- streaming phase: ingestion pipeline under arrival chaos --------
    from repro.streaming import (
        SlidingWindowAggregate,
        batch_window_aggregates,
        run_stream_soak,
        synthetic_stream,
    )

    # Floor the span at 300 simulated seconds: shorter streams carry no
    # default degradations, and the detection-latency metric needs one.
    stream_duration_s = max(300.0, scale.soak_duration_s * 15.0)
    stream_rate = 8.0

    stream_soak = _timed(lambda: run_stream_soak(
        seed=scale.seed,
        duration_s=stream_duration_s,
        rate_per_s=stream_rate,
    ))
    stream_report = stream_soak["value"]
    _hold("stream", stream_report.verdict())
    results["streaming_soak_wall_s"] = stream_soak["seconds"]
    results["streaming_deliveries_n"] = stream_report.n_deliveries
    results["streaming_records_per_wall_s"] = (
        stream_report.n_deliveries / max(1e-9, stream_soak["seconds"])
    )
    # Simulated-time detection latency: degradation onset to the first
    # in-horizon experience change point.  Purely seed-derived (the
    # soak's blind-rate gate above guarantees every degradation has
    # one), so the regression gate treats it like the serving/cluster
    # percentiles: any drift is a detector behaviour change.
    lags = []
    for spec in stream_report.degradations:
        lags.append(min(
            cp.at_s - spec.at_s
            for cp in stream_report.change_points
            if cp.role == "experience"
            and spec.at_s <= cp.at_s <= spec.at_s + spec.detect_within_s
        ))
    results["streaming_detect_latency_s"] = sum(lags) / len(lags)

    # Incremental sliding window vs a stateless consumer recomputing
    # every complete window from the full prefix at each slide boundary.
    stream_records = synthetic_stream(
        seed=scale.seed,
        duration_s=stream_duration_s,
        rate_per_s=stream_rate,
    )
    window_s, slide_s = 60.0, 10.0
    final_s = stream_records[-1].event_time_s

    def incremental_once():
        op = SlidingWindowAggregate(window_s=window_s, slide_s=slide_s)
        out = op.process(stream_records, final_s)
        out += op.flush(final_s)
        return {(e.metric, e.at_s): (e.value, e.count) for e in out}

    def naive_once():
        out = {}
        boundary = slide_s
        i = 0
        while boundary <= final_s:
            while (
                i < len(stream_records)
                and stream_records[i].event_time_s <= boundary
            ):
                i += 1
            if i:
                out.update(batch_window_aggregates(
                    stream_records[:i], window_s=window_s, slide_s=slide_s,
                ))
            boundary += slide_s
        return out

    incremental = _timed(incremental_once)
    naive = _timed(naive_once)
    oracle = batch_window_aggregates(
        stream_records, window_s=window_s, slide_s=slide_s
    )
    if incremental["value"] != oracle or naive["value"] != oracle:
        raise AssertionError(
            "incremental window aggregation diverged from the batch "
            "recompute oracle"
        )
    results["streaming_windows_n"] = len(oracle)
    results["streaming_incremental_s"] = incremental["seconds"]
    results["streaming_naive_recompute_s"] = naive["seconds"]
    results["streaming_incremental_speedup"] = naive["seconds"] / max(
        1e-9, incremental["seconds"]
    )

    # --- prediction phase: columnar MOS training/inference/serving ------
    import dataclasses

    import numpy as np

    from repro.perf.columnar import ParticipantColumns
    from repro.prediction import (
        CoalescerConfig,
        ColumnarMosPredictor,
        emodel_prior_mos,
        evaluate_ground_truth,
        run_prediction_soak,
        synthetic_prediction_server,
    )
    from repro.resilience.faults import Arrival
    from repro.rng import derive
    from repro.telemetry.vectorized import VectorizedCallEngine
    from tests.prediction.oracle import MosPredictor

    # A rating-rich replay of the call workload: training needs far more
    # rated sessions than the paper's ~0.5 % prompt rate yields.
    rated_config = dataclasses.replace(calls_config, mos_sample_rate=0.5)
    rated_dataset = CallDatasetGenerator(rated_config).generate()
    rated_parts = list(rated_dataset.participants())
    rated_cols = ParticipantColumns.from_dataset(rated_dataset)

    record_model = MosPredictor().fit(rated_parts)
    train = _timed_vec(
        lambda: ColumnarMosPredictor().fit_columns(rated_cols)
    )
    columnar_model = train["value"]
    if any(
        np.float64(record_model.weights()[f]).tobytes()
        != np.float64(columnar_model.weights()[f]).tobytes()
        for f in record_model.weights()
    ):
        raise AssertionError(
            "columnar fit diverged from the record reference weights"
        )
    results["prediction_train_s"] = train["seconds"]
    results["prediction_train_rows"] = len(rated_cols)

    record_infer = _timed(lambda: record_model.predict(rated_parts))
    batch_infer = _timed_vec(
        lambda: columnar_model.predict_columns(rated_cols)
    )
    if record_infer["value"].tobytes() != batch_infer["value"].tobytes():
        raise AssertionError(
            "columnar predictions diverged from the record reference"
        )
    results["prediction_record_infer_s"] = record_infer["seconds"]
    results["prediction_batch_infer_s"] = batch_infer["seconds"]
    results["prediction_batch_speedup"] = record_infer["seconds"] / max(
        1e-9, batch_infer["seconds"]
    )
    results["prediction_rows_per_s"] = len(rated_cols) / max(
        1e-9, batch_infer["seconds"]
    )

    # Accuracy against the simulator's experienced QoE: the rating-
    # trained model must beat the network-only E-model prior, which
    # cannot see user-experience factors like early drops.
    truth_cols, truth = VectorizedCallEngine(
        rated_config
    ).generate_with_ground_truth()
    truth_model = ColumnarMosPredictor().fit_columns(truth_cols)
    report_model = evaluate_ground_truth(
        truth_model.predict_columns(truth_cols), truth, truth_cols.platform
    )
    report_prior = evaluate_ground_truth(
        emodel_prior_mos(truth_cols), truth, truth_cols.platform
    )
    # Smoke scale trains on a few dozen ratings — too few for the
    # model to beat the prior reliably, so the accuracy bar (like the
    # speedup floors) binds only at full scale.
    if scale.name == "full" and report_model.mae > report_prior.mae:
        raise AssertionError(
            f"trained predictor MAE {report_model.mae:.4f} worse than "
            f"the E-model prior's {report_prior.mae:.4f}"
        )
    results["prediction_mae"] = report_model.mae
    results["prediction_bias"] = report_model.bias
    results["prediction_prior_mae"] = report_prior.mae

    # Over-capacity coalesced serving soak on a ManualClock: arrivals,
    # costs and the coalescer all run on simulated time, so the p99 is
    # seed-derived and byte-stable — it joins the regression gate.
    coalescer = CoalescerConfig(max_batch=16, max_delay_s=0.01)

    def prediction_soak_once():
        server, _, engine = synthetic_prediction_server(
            truth_cols, truth_model, seed=scale.seed,
            coalescer=coalescer, max_pending=16,
        )
        batch_cost = engine.cost_model.batch_cost_s(
            coalescer.max_batch * len(truth_cols)
        )
        # 1.5x the one-batch-per-service-time capacity, with a deadline
        # of ten batch costs: enough for coalesced groups to survive
        # the 16-deep queue, tight enough that overload still degrades
        # (E-model fallback) and sheds the rest.
        rate = 1.5 * coalescer.max_batch / batch_cost
        n_queries = max(60, int(50 * scale.soak_duration_s))
        rng = derive(scale.seed, "prediction", "perf-soak")
        at_s = np.cumsum(rng.exponential(1.0 / rate, n_queries))
        arrivals = [
            Arrival(
                at_s=float(t),
                priority="interactive" if i % 8 == 0 else "batch",
                deadline_s=10.0 * batch_cost,
            )
            for i, t in enumerate(at_s)
        ]
        return run_prediction_soak(server, arrivals)

    soak_timing = _timed(prediction_soak_once)
    prediction_report = soak_timing["value"]
    _hold("prediction", prediction_report.verdict())
    results["prediction_soak_wall_s"] = soak_timing["seconds"]
    results["prediction_soak_submitted"] = prediction_report.submitted
    results["prediction_soak_served"] = prediction_report.served
    results["prediction_soak_degraded"] = prediction_report.served_degraded
    results["prediction_soak_shed"] = prediction_report.shed
    results["prediction_soak_mean_coalesced"] = (
        prediction_report.mean_coalesced
    )
    results["prediction_soak_p99_coalesced_s"] = (
        prediction_report.p99_latency_s
    )
    results["prediction_soak_max_overrun_s"] = (
        prediction_report.max_overrun_s
    )

    # --- integrity phase: trust scoring + robust aggregation ------------
    from repro.integrity import (
        OnlineTrustGate,
        rated_weights,
        robust_mos,
        score_raters,
    )
    from repro.resilience.faults import DataFaultSpec, FaultPlan
    from repro.streaming.records import StreamRecord

    # Contaminate the rating-rich replay with a seeded fraud campaign,
    # then time the naive mean against the full trust-weighted robust
    # path (score raters -> weight rated rows -> trimmed mean).  The
    # overhead ratio is the price of integrity on every aggregate.
    injector = FaultPlan(scale.seed).data_faults(
        "perf-integrity", DataFaultSpec(fraud_fraction=0.1, fraud_rating=1)
    )
    tainted = injector.contaminate_calls(rated_dataset)
    tainted_cols = ParticipantColumns.from_dataset(tainted.dataset)

    naive_agg = _timed_vec(
        lambda: robust_mos(tainted_cols, statistic="mean")
    )

    def robust_once() -> float:
        scores = score_raters(tainted.dataset)
        weights = rated_weights(tainted_cols, scores)
        return robust_mos(
            tainted_cols, statistic="trimmed_mean", weights=weights
        )

    robust_agg = _timed_vec(robust_once)
    results["integrity_naive_agg_s"] = naive_agg["seconds"]
    results["integrity_robust_agg_s"] = robust_agg["seconds"]
    results["integrity_agg_overhead"] = robust_agg["seconds"] / max(
        1e-9, naive_agg["seconds"]
    )
    results["integrity_rows_per_s"] = len(tainted_cols) / max(
        1e-9, robust_agg["seconds"]
    )

    # Contamination-detection latency on the *simulated* clock: feed the
    # online gate organic traffic, then a constant-value flood from one
    # key, and report how much event time passes before the first
    # quarantine.  Seed-derived, so byte-stable across hosts — any
    # movement is a gate behaviour change, not noise.
    def detect_once() -> float:
        gate = OnlineTrustGate()
        rng = derive(scale.seed, "integrity", "perf-detect")
        attack_at = 300.0
        t = 0.0
        while t < attack_at:
            t += float(rng.exponential(0.5))
            gate.observe(StreamRecord(
                event_time_s=t,
                source="app",
                metric="rtt_ms",
                value=round(float(rng.normal(50.0, 5.0)), 3),
                key=f"user-{int(rng.integers(0, 40))}",
            ))
        t = attack_at
        while t <= attack_at + 600.0:
            quarantined = gate.observe(StreamRecord(
                event_time_s=t,
                source="bot",
                metric="rtt_ms",
                value=999.0,
                key="flood",
            ))
            if quarantined:
                return t - attack_at
            t += 0.05
        raise AssertionError("trust gate never quarantined the flood")

    results["integrity_detect_latency_s"] = detect_once()

    results["cache_stats"] = cache.stats().summary()
    return results


def make_entry(scale: PerfScale, results: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap raw results in trajectory metadata."""
    return {
        "timestamp_unix": time.time(),
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
        "scale": scale.name,
        "python": platform.python_version(),
        "workload": {
            "n_calls": scale.n_calls,
            "corpus_start": scale.corpus_start.isoformat(),
            "corpus_end": scale.corpus_end.isoformat(),
            "author_pool_size": scale.author_pool_size,
            "seed": scale.seed,
            "soak_duration_s": scale.soak_duration_s,
        },
        "results": results,
    }


def read_trajectory(path: Path) -> Dict[str, Any]:
    """Load a trajectory file, tolerating absence (fresh repo)."""
    if not Path(path).exists():
        return {"schema": TRAJECTORY_SCHEMA, "runs": []}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "runs" not in data:
        raise ValueError(f"{path}: not a BENCH_perf trajectory file")
    return data


def append_trajectory(path: Path, entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append one run to the trajectory file (atomically) and return it."""
    from repro.io.jsonl import atomic_writer

    data = read_trajectory(path)
    data["schema"] = TRAJECTORY_SCHEMA
    data["runs"].append(entry)
    with atomic_writer(path) as f:
        f.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def format_results(results: Dict[str, Any]) -> str:
    lines = ["perf suite results:"]
    for key in sorted(results):
        value = results[key]
        if isinstance(value, float):
            lines.append(f"  {key:28s} {value:10.4f}")
        else:
            lines.append(f"  {key:28s} {value}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.harness",
        description="Measure cold/warm generation, sentiment throughput "
                    "and per-phase speedups; append to the BENCH trajectory.",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=str(DEFAULT_TRAJECTORY),
                        help="trajectory JSON to append to")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: a fresh temp dir, "
                             "so cold numbers are honest)")
    args = parser.parse_args(argv)

    scale = PerfScale.full() if args.scale == "full" else PerfScale.smoke()
    if args.cache_dir is None:
        import tempfile

        cache_root = Path(tempfile.mkdtemp(prefix="repro-perf-"))
    else:
        cache_root = Path(args.cache_dir)
    results = run_perf_suite(scale, cache_root)
    print(format_results(results))
    append_trajectory(Path(args.out), make_entry(scale, results))
    print(f"\nappended run to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
