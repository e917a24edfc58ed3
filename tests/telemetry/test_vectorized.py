"""Equivalence and determinism pins for the vectorized call engine.

The contract (see :mod:`repro.telemetry.vectorized`): output is
*statistically* equivalent to the record path — same population model,
same per-call substreams, documented different draw order — and
*byte-identical* within the vectorized path across runs and cache
round-trips.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.netsim.trace import SAMPLE_INTERVAL_S
from repro.perf.cache import ArtifactCache
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry import vectorized
from repro.telemetry.vectorized import VectorizedCallEngine

SEEDS = (101, 202, 303)


def columns_for(seed, n_calls=60, **kwargs):
    config = GeneratorConfig(n_calls=n_calls, seed=seed, **kwargs)
    return CallDatasetGenerator(config).generate_columns()


def assert_columns_identical(a, b):
    assert a.call_id == b.call_id
    assert a.user_id == b.user_id
    assert a.platform == b.platform
    assert a.country == b.country
    assert a.call_start == b.call_start
    for name in ("session_duration_s", "presence_pct", "cam_on_pct",
                 "mic_on_pct", "conditioning", "dropped_early", "rating"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.network.keys() == b.network.keys()
    for metric, stats in a.network.items():
        for stat, values in stats.items():
            assert values.tobytes() == b.network[metric][stat].tobytes(), (
                metric, stat,
            )


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        assert_columns_identical(columns_for(101), columns_for(101))

    def test_seed_changes_output(self):
        a, b = columns_for(101), columns_for(202)
        assert a.session_duration_s.tobytes() != b.session_duration_s.tobytes()

    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        config = GeneratorConfig(n_calls=24, seed=101)
        cache = ArtifactCache(tmp_path / "cache")
        gen = CallDatasetGenerator(config)
        built = gen.generate_columns(cache=cache)
        loaded = gen.generate_columns(cache=cache)
        assert_columns_identical(built, loaded)

    def test_persistent_users_rejected(self):
        config = GeneratorConfig(n_calls=4, seed=1, persistent_users=True)
        with pytest.raises(ConfigError):
            VectorizedCallEngine(config)

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_bucket_budget_changes_no_byte(self, budget, monkeypatch):
        # 1 evaluates every call on its own; 1 << 40 never flushes
        # before the last call, so each width is one bucket.
        expected = columns_for(101, mos_sample_rate=0.3)
        monkeypatch.setattr(vectorized, "_BUCKET_CELLS", budget)
        assert_columns_identical(
            columns_for(101, mos_sample_rate=0.3), expected
        )


def _peak_alloc_bytes(engine):
    tracemalloc.start()
    try:
        engine.generate_columns()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_peak_does_not_grow_with_call_count(self):
        engines = [
            VectorizedCallEngine(
                GeneratorConfig(n_calls=n, seed=1, mos_sample_rate=0.3)
            )
            for n in (100, 400)
        ]
        # Premise: the largest width bucket passes the budget at both
        # sizes, so both runs hold the same bounded set of draws.
        for engine in engines:
            cells = {}
            for meeting in engine._meetings():
                width = round(meeting.scheduled_duration_s / SAMPLE_INTERVAL_S)
                cells[width] = cells.get(width, 0) + meeting.size * width
            assert max(cells.values()) > vectorized._BUCKET_CELLS
        engines[0].generate_columns()  # load scipy outside the measurement
        small, large = (_peak_alloc_bytes(engine) for engine in engines)
        assert large <= 1.25 * small, (small, large)


class TestGroundTruth:
    """The rated block ``usaas predict`` and perfbench build."""

    TRUTH_PINS = {
        1: "af3cc0317dd5893411a9d05bab910198a7b202e9856e62a0afdff4ef6e0f05f6",
        20231128:
            "bf4e0c0cb5eda5128da12602496e815c931490b5dd6c4b5122ec97ab4b95ebaf",
    }

    @pytest.mark.parametrize("seed", sorted(TRUTH_PINS))
    def test_truth_pinned_and_columns_match_generate_columns(self, seed):
        engine = VectorizedCallEngine(
            GeneratorConfig(n_calls=400, seed=seed, mos_sample_rate=0.3)
        )
        cols, truth = engine.generate_with_ground_truth()
        assert_columns_identical(cols, engine.generate_columns())
        assert truth.shape == (len(cols),)
        digest = hashlib.sha256(truth.tobytes()).hexdigest()
        assert digest == self.TRUTH_PINS[seed]


class TestRecordEquivalence:
    """Population statistics must match the record path across seeds."""

    @pytest.fixture(scope="class")
    def pairs(self):
        out = []
        for seed in SEEDS:
            config = GeneratorConfig(n_calls=200, seed=seed)
            gen = CallDatasetGenerator(config)
            dataset = gen.generate()
            cols = gen.generate_columns()
            out.append((dataset, cols))
        return out

    def test_row_counts_match_exactly(self, pairs):
        # Meetings (and so call widths) come from the same substream on
        # both engines: participant counts are draw-identical.
        for dataset, cols in pairs:
            assert len(cols) == dataset.n_participants
            assert sorted(set(cols.call_id)) == sorted(
                call.call_id for call in dataset
            )

    def test_platform_mix_matches(self, pairs):
        for dataset, cols in pairs:
            rec = {}
            for call in dataset:
                for p in call.participants:
                    rec[p.platform] = rec.get(p.platform, 0) + 1
            vec = {}
            for platform in cols.platform:
                vec[platform] = vec.get(platform, 0) + 1
            for platform, n in rec.items():
                assert vec.get(platform, 0) == pytest.approx(n, rel=0.35), (
                    platform
                )

    def test_behavioral_means_match(self, pairs):
        for dataset, cols in pairs:
            participants = [
                p for call in dataset for p in call.participants
            ]
            rec_presence = np.mean([p.presence_pct for p in participants])
            rec_mic = np.mean([p.mic_on_pct for p in participants])
            rec_duration = np.mean(
                [p.session_duration_s for p in participants]
            )
            assert cols.presence_pct.mean() == pytest.approx(
                rec_presence, rel=0.05
            )
            assert cols.mic_on_pct.mean() == pytest.approx(rec_mic, rel=0.10)
            # Session duration carries the most variance (hazard leave
            # times); independent draws at this scale sit within ~3%,
            # so 7% holds with margin without masking real drift.
            assert cols.session_duration_s.mean() == pytest.approx(
                rec_duration, rel=0.07
            )

    def test_rating_sparsity_matches_sample_rate(self, pairs):
        for dataset, cols in pairs:
            rated = np.count_nonzero(~np.isnan(cols.rating))
            # mos_sample_rate=0.005 over a few thousand rows: just pin
            # the order of magnitude (sparse, not absent-by-bug).
            assert rated <= max(8, 0.05 * len(cols))

    def test_network_summaries_match(self, pairs):
        for dataset, cols in pairs:
            participants = [
                p for call in dataset for p in call.participants
            ]
            rec_latency = np.mean([
                p.network["latency_ms"]["mean"] for p in participants
            ])
            vec_latency = cols.network["latency_ms"]["mean"].mean()
            assert vec_latency == pytest.approx(rec_latency, rel=0.10)
            rec_loss = np.mean([
                p.network["loss_pct"]["mean"] for p in participants
            ])
            vec_loss = cols.network["loss_pct"]["mean"].mean()
            assert vec_loss == pytest.approx(rec_loss, rel=0.35)
