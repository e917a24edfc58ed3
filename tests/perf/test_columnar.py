"""Tier-1 equivalence contracts for the columnar query layer.

The whole point of ``repro.perf.columnar`` is that it is a *pure*
optimisation: every analysis built on it must produce results
float-for-float identical to the record-at-a-time loop it replaced,
which lives on in ``tests/`` as an oracle.  These tests pin that
contract across seeds — ``.tobytes()`` comparisons, not ``allclose`` —
plus the serialization round trips, the artifact-cache integration and
the shared sentiment block.
"""

import datetime as dt

import numpy as np
import pytest

from repro.analysis.fulcrum import pos_vs_speed
from repro.analysis.outage_monitor import outage_keyword_series
from repro.analysis.sentiment_timeline import sentiment_timeline
from repro.core.signals import ImplicitSignal, SignalKind, SignalSeries
from repro.core.timeline import MonthlySeries
from repro.core.usaas import (
    FallbackSentimentChain,
    social_signals,
    telemetry_signals,
)
from repro.engagement import (
    DEFAULT_EDGES,
    control_windows_except,
    curve_matrix,
    engagement_curve,
)
from repro.errors import QueryError, SchemaError
from repro.perf import ArtifactCache
from repro.perf.columnar import (
    CorpusColumns,
    ParticipantColumns,
    corpus_columns,
    participant_columns,
)
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.schema import ENGAGEMENT_METRICS
from tests.analysis.oracle import (
    outage_keyword_series_records,
    pos_vs_speed_records,
    sentiment_timeline_records,
)
from tests.engagement.oracle import engagement_curve_records
from tests.usaas.oracle import (
    social_signals_records,
    telemetry_signals_records,
)

SEEDS = (101, 202, 303)

#: A 43-day corpus: small enough for tier-1.
CORPUS_KW = dict(
    span_start=dt.date(2022, 2, 1),
    span_end=dt.date(2022, 3, 15),
    author_pool_size=150,
)


def _dataset(seed, n_calls=20):
    return CallDatasetGenerator(
        GeneratorConfig(n_calls=n_calls, seed=seed)
    ).generate()


@pytest.fixture(scope="module")
def datasets():
    return {seed: _dataset(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(CorpusConfig(seed=101, **CORPUS_KW)).generate()


def _assert_curves_equal(a, b, label):
    assert a.stat.tobytes() == b.stat.tobytes(), label
    assert a.counts.tobytes() == b.counts.tobytes(), label
    assert a.edges.tobytes() == b.edges.tobytes(), label
    assert a.centers.tobytes() == b.centers.tobytes(), label


class TestCurveBitIdentity:
    """curve_matrix == engagement_curve == the record oracle, bit for bit."""

    def test_matrix_matches_per_curve_loop_across_seeds(self, datasets):
        windows = {m: control_windows_except(m) for m in DEFAULT_EDGES}
        for seed, ds in datasets.items():
            records = [p for call in ds for p in call.participants]
            matrix = curve_matrix(
                ds, dict(DEFAULT_EDGES),
                engagement_metrics=list(ENGAGEMENT_METRICS),
                control_windows=windows, min_bin_count=5,
            )
            for nm in DEFAULT_EDGES:
                for em in ENGAGEMENT_METRICS:
                    ref = engagement_curve_records(
                        records, nm, em, DEFAULT_EDGES[nm],
                        control_windows=windows[nm], min_bin_count=5,
                    )
                    _assert_curves_equal(
                        matrix[nm][em], ref, f"seed={seed} {nm}/{em}"
                    )

    def test_columnar_single_curve_matches_record_path(self, datasets):
        ds = datasets[101]
        records = [p for call in ds for p in call.participants]
        for nm in ("latency_ms", "loss_pct"):
            col = engagement_curve(ds, nm, "mic_on_pct", DEFAULT_EDGES[nm])
            rec = engagement_curve_records(
                records, nm, "mic_on_pct", DEFAULT_EDGES[nm]
            )
            _assert_curves_equal(col, rec, nm)
            # A plain record list goes through participant_columns too.
            listed = engagement_curve(
                records, nm, "mic_on_pct", DEFAULT_EDGES[nm]
            )
            _assert_curves_equal(listed, rec, nm)

    def test_dropped_early_and_p95_agree(self, datasets):
        ds = datasets[202]
        records = [p for call in ds for p in call.participants]
        col = engagement_curve(
            ds, "jitter_ms", "dropped_early", DEFAULT_EDGES["jitter_ms"],
            network_stat="p95", statistic="median",
        )
        rec = engagement_curve_records(
            records, "jitter_ms", "dropped_early", DEFAULT_EDGES["jitter_ms"],
            network_stat="p95", statistic="median",
        )
        _assert_curves_equal(col, rec, "dropped_early/p95")

    def test_matrix_without_windows(self, datasets):
        ds = datasets[303]
        records = [p for call in ds for p in call.participants]
        matrix = curve_matrix(ds, {"latency_ms": DEFAULT_EDGES["latency_ms"]})
        for em in ENGAGEMENT_METRICS:
            ref = engagement_curve_records(
                records, "latency_ms", em, DEFAULT_EDGES["latency_ms"]
            )
            _assert_curves_equal(matrix["latency_ms"][em], ref, em)


class TestSignalEquivalence:
    """Bulk columnar exports equal the record-loop oracle, signal for
    signal — same order, same kinds, same attrs."""

    def test_telemetry_signals_across_seeds(self, datasets):
        for seed, ds in datasets.items():
            rec = telemetry_signals_records(ds, network="starlink")
            col = telemetry_signals(ds, network="starlink")
            assert list(col) == list(rec), f"seed={seed}"

    def test_telemetry_rating_rows_are_explicit(self, datasets):
        col = telemetry_signals(datasets[101], network="starlink")
        kinds = {s.metric: s.kind for s in col}
        assert kinds["presence"] is SignalKind.IMPLICIT
        assert kinds.get("rating", SignalKind.EXPLICIT) is SignalKind.EXPLICIT

    def test_rating_column_is_nan_sparse_and_matches_records(self):
        ds = CallDatasetGenerator(
            GeneratorConfig(n_calls=20, seed=101, mos_sample_rate=0.5)
        ).generate()
        cols = participant_columns(ds)
        parts = list(ds.participants())
        rated = np.isfinite(cols.rating)
        assert rated.tolist() == [p.rating is not None for p in parts]
        assert 0 < rated.sum() < len(parts)
        expected = np.array(
            [p.rating for p in parts if p.rating is not None], dtype=float
        )
        assert cols.rating[rated].tobytes() == expected.tobytes()

    def test_per_row_network_labels_match_records(self, datasets):
        # The same mobile/fixed split, once as labels in
        # participant_columns row order and once as the oracle's
        # per-participant attribution function.
        def split(platform):
            return "mobile" if "mobile" in platform else "fixed"

        for seed, ds in datasets.items():
            labels = [split(p) for p in participant_columns(ds).platform]
            col = telemetry_signals(ds, network=labels)
            rec = telemetry_signals_records(
                ds, network="", network_of=lambda p: split(p.platform)
            )
            assert list(col) == list(rec), f"seed={seed}"

    def test_per_row_network_labels_must_cover_every_session(self, datasets):
        ds = datasets[101]
        with pytest.raises(QueryError, match="labels for"):
            telemetry_signals(ds, network=["starlink"])

    def test_social_signals_match_records(self, corpus):
        rec = social_signals_records(corpus, network="starlink")
        col = social_signals(corpus, network="starlink")
        assert list(col) == list(rec)

    def test_fallback_chain_scores_through_columns(self, corpus):
        # Every post falls back past a primary scorer that always
        # raises, and the offline lexicon still produces the exact same
        # signals as the default path, one fallback per post.
        def down(text):
            raise ConnectionError("sentiment API unreachable")

        chain = FallbackSentimentChain(("hosted", down))
        rec = social_signals(corpus, network="starlink", analyzer=chain)
        col = social_signals(corpus, network="starlink")
        assert list(col) == list(rec)
        assert chain.served_by == {
            "hosted": 0, FallbackSentimentChain.OFFLINE: len(corpus)
        }
        assert chain.fallback_calls == len(corpus)


class TestExtendColumns:
    def _ts(self, n):
        base = dt.datetime(2022, 3, 1, 12, 0)
        return [base + dt.timedelta(minutes=i) for i in range(n)]

    def test_broadcast_scalars_match_append(self):
        ts = self._ts(3)
        values = np.array([1.0, 2.0, 3.0])
        bulk = SignalSeries()
        n = bulk.extend_columns(
            SignalKind.IMPLICIT, ts, "starlink", "presence", values,
            service="teams", weight=2.0,
        )
        assert n == 3
        ref = SignalSeries()
        for t, v in zip(ts, values):
            ref.append(ImplicitSignal(
                t, "starlink", "presence", float(v),
                service="teams", weight=2.0,
            ))
        assert list(bulk) == list(ref)

    def test_per_row_kind_and_metric_columns(self):
        ts = self._ts(2)
        series = SignalSeries()
        series.extend_columns(
            [SignalKind.IMPLICIT, SignalKind.EXPLICIT], ts,
            "starlink", ["presence", "rating"], [80.0, 4.0],
        )
        signals = list(series)
        assert signals[0].kind is SignalKind.IMPLICIT
        assert signals[1].kind is SignalKind.EXPLICIT
        assert [s.metric for s in signals] == ["presence", "rating"]

    def test_length_mismatch_message(self):
        series = SignalSeries()
        with pytest.raises(
            SchemaError,
            match=r"extend_columns: values has length 2, expected 3",
        ):
            series.extend_columns(
                SignalKind.IMPLICIT, self._ts(3), "starlink",
                "presence", [1.0, 2.0],
            )

    def test_validation_messages_match_post_init(self):
        series = SignalSeries()
        with pytest.raises(SchemaError, match="signal requires a network"):
            series.extend_columns(
                SignalKind.IMPLICIT, self._ts(1), "", "presence", [1.0]
            )
        with pytest.raises(
            SchemaError, match=r"weight must be non-negative, got -1.0"
        ):
            series.extend_columns(
                SignalKind.IMPLICIT, self._ts(1), "starlink", "presence",
                [1.0], weight=-1.0,
            )
        assert len(series) == 0  # nothing half-appended


def _assert_participant_columns_equal(a, b):
    assert a.call_id == b.call_id
    assert a.user_id == b.user_id
    assert a.platform == b.platform
    assert a.country == b.country
    assert a.call_start == b.call_start
    for name in (
        "session_duration_s", "presence_pct", "cam_on_pct",
        "mic_on_pct", "conditioning", "rating",
    ):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.dropped_early.tobytes() == b.dropped_early.tobytes()
    assert set(a.network) == set(b.network)
    for metric, stats in a.network.items():
        for stat, arr in stats.items():
            assert arr.tobytes() == b.network[metric][stat].tobytes()


class TestRoundTrips:
    def test_participant_columns_jsonl(self, datasets, tmp_path):
        cols = participant_columns(datasets[101])
        path = tmp_path / "cols.jsonl"
        cols.to_jsonl(path)
        loaded = ParticipantColumns.from_jsonl(path)
        _assert_participant_columns_equal(cols, loaded)

    def test_corpus_columns_jsonl(self, corpus, tmp_path):
        cols = corpus_columns(corpus)
        path = tmp_path / "corpus.jsonl"
        cols.to_jsonl(path)
        loaded = CorpusColumns.from_jsonl(path)
        assert loaded.post_id == cols.post_id
        assert loaded.full_text == cols.full_text
        assert loaded.created == cols.created
        assert loaded.day_index.tobytes() == cols.day_index.tobytes()
        assert loaded.month == cols.month
        assert loaded.popularity.tobytes() == cols.popularity.tobytes()
        assert loaded.speed_indices.tobytes() == cols.speed_indices.tobytes()
        # Post objects do not survive the disk trip; touching them must
        # be loud, not silently empty.
        assert loaded.posts is None
        with pytest.raises(SchemaError):
            loaded.speed_share_posts()

    def test_truncated_file_is_a_schema_error(self, datasets, tmp_path):
        cols = participant_columns(datasets[101])
        path = tmp_path / "cols.jsonl"
        cols.to_jsonl(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        with pytest.raises(SchemaError):
            ParticipantColumns.from_jsonl(path)


class TestCacheIntegration:
    def test_participant_columns_served_from_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = GeneratorConfig(n_calls=8, seed=77)
        first = participant_columns(
            CallDatasetGenerator(config).generate(), cache=cache,
            config=config,
        )
        # A fresh dataset object (no memo) with the same config must be
        # served the persisted block.
        second = participant_columns(
            CallDatasetGenerator(config).generate(), cache=cache,
            config=config,
        )
        _assert_participant_columns_equal(first, second)
        assert cache.stats().hits >= 1

    def test_corpus_columns_cache_reattaches_posts(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        config = CorpusConfig(seed=77, **CORPUS_KW)
        corpus_columns(CorpusGenerator(config).generate(), cache=cache)
        fresh = CorpusGenerator(config).generate()
        cols = corpus_columns(fresh, cache=cache)
        # Cache hit, but the in-hand corpus re-supplies the post objects
        # so speed_share_posts keeps working.
        assert cache.stats().hits >= 1
        shares = cols.speed_share_posts()
        assert [p.post_id for p in shares] == [
            p.post_id for p in fresh.speed_shares()
        ]


class TestSharedSentimentBlock:
    def test_block_scored_once_and_memoized(self, corpus):
        cols = corpus_columns(corpus)
        assert cols.sentiment(None) is cols.sentiment(None)
        assert corpus_columns(corpus) is cols  # corpus-level memo too

    def test_timeline_matches_record_path(self, corpus):
        col = sentiment_timeline(corpus)
        rec = sentiment_timeline_records(corpus)
        assert (
            col.strong_positive.values.tobytes()
            == rec.strong_positive.values.tobytes()
        )
        assert (
            col.strong_negative.values.tobytes()
            == rec.strong_negative.values.tobytes()
        )
        assert col.scores == rec.scores

    def test_outage_series_matches_record_path(self, corpus):
        rec = outage_keyword_series_records(corpus)
        for analyzer in (None, FallbackSentimentChain()):
            col = outage_keyword_series(corpus, analyzer=analyzer)
            assert (
                col.occurrences.values.tobytes()
                == rec.occurrences.values.tobytes()
            )
            assert (
                col.threads.values.tobytes() == rec.threads.values.tobytes()
            )

    def test_unfiltered_outage_series_matches_record_path(self, corpus):
        col = outage_keyword_series(corpus, negative_only=False)
        rec = outage_keyword_series_records(corpus, negative_only=False)
        assert (
            col.occurrences.values.tobytes()
            == rec.occurrences.values.tobytes()
        )
        assert col.threads.values.tobytes() == rec.threads.values.tobytes()

    def test_fulcrum_matches_record_path(self, corpus):
        speed = MonthlySeries.from_mapping(
            {(2022, 2): 100.0, (2022, 3): 90.0}
        )
        col = pos_vs_speed(corpus, speed, min_strong_posts=1)
        rec = pos_vs_speed_records(corpus, speed, min_strong_posts=1)
        assert col.pos.values.tobytes() == rec.pos.values.tobytes()


class TestColumnsSmoke:
    """Cheap structural checks; no perf marker, runs in tier-1."""

    def test_build_and_query_tiny_dataset(self):
        ds = _dataset(7, n_calls=3)
        cols = participant_columns(ds)
        assert len(cols) == ds.n_participants
        assert len(cols.metric("latency_ms", "mean")) == len(cols)
        drop = cols.engagement_values("dropped_early")
        assert set(np.unique(drop)).issubset({0.0, 100.0})
        mask = cols.window_mask(control_windows_except("latency_ms"))
        assert mask.dtype == bool and len(mask) == len(cols)
        with pytest.raises(SchemaError):
            cols.metric("latency_ms", "p99")
        with pytest.raises(SchemaError):
            cols.engagement_values("charisma")

    def test_append_invalidates_memo(self):
        ds = _dataset(7, n_calls=3)
        cols = participant_columns(ds)
        ds.append(ds[0])
        fresh = participant_columns(ds)
        assert fresh is not cols
        assert len(fresh) == len(cols) + len(ds[0].participants)
