"""Equivalence and determinism pins for the vectorized corpus engine.

Contract (see :mod:`repro.social.vectorized`): per-day substreams keep
the daily post counts draw-identical to the record path; everything
downstream of the first two draws is re-ordered into block form, so the
corpus is *statistically* equivalent — and *byte-identical* within the
vectorized path across runs and cache round-trips.
"""

import datetime as dt
from collections import Counter

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.perf.cache import ArtifactCache
from repro.social.corpus import CorpusConfig, CorpusGenerator

SPAN = dict(span_start=dt.date(2022, 3, 1), span_end=dt.date(2022, 4, 30))


def config_for(seed, **kwargs):
    kwargs.setdefault("author_pool_size", 200)
    return CorpusConfig(seed=seed, **SPAN, **kwargs)


def columns_for(seed, cache=None, **kwargs):
    gen = CorpusGenerator(config_for(seed, **kwargs))
    return gen.generate_columns(cache=cache)


def assert_columns_identical(a, b):
    assert (a.span_start, a.span_end) == (b.span_start, b.span_end)
    for name in ("post_id", "author", "topic", "full_text", "created",
                 "month"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("day_index", "popularity", "speed_indices"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        assert_columns_identical(columns_for(11), columns_for(11))

    def test_seed_changes_output(self):
        assert columns_for(11).post_id != columns_for(12).post_id

    def test_cache_round_trip_preserves_columns_without_posts(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        built = columns_for(11, cache=cache)
        loaded = columns_for(11, cache=cache)
        assert_columns_identical(built, loaded)
        # The vectorized path never materializes Post objects; the cache
        # must round-trip that honestly rather than inventing them.
        assert built.posts is None and loaded.posts is None
        with pytest.raises(SchemaError):
            loaded.speed_share_posts()


class TestRecordEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        gen = CorpusGenerator(config_for(21))
        return gen.generate(), gen.generate_columns()

    def test_daily_counts_are_draw_identical(self, pair):
        # n_posts comes off each day's substream before the paths
        # diverge, so per-day counts match exactly — not just in
        # distribution.
        corpus, cols = pair
        rec = Counter(p.date for p in corpus)
        start = cols.span_start
        vec = Counter(
            start + dt.timedelta(days=int(d)) for d in cols.day_index
        )
        assert rec == vec
        assert len(cols) == len(corpus)

    def test_sorted_by_created_with_unique_ids(self, pair):
        _, cols = pair
        assert cols.created == sorted(cols.created)
        assert len(set(cols.post_id)) == len(cols)

    def test_speed_indices_point_at_speed_posts(self, pair):
        corpus, cols = pair
        topics = np.array(cols.topic)
        assert set(topics[cols.speed_indices]) == {"speed_test_share"}
        # Internally exact: every speed post is indexed, none missed.
        assert len(cols.speed_indices) == int(
            np.count_nonzero(topics == "speed_test_share")
        )
        # Vs record only statistical — topic draws sit after the paths
        # diverge, so counts agree in distribution, not draw-for-draw.
        assert len(cols.speed_indices) == pytest.approx(
            len(corpus.speed_shares()), rel=0.10
        )

    def test_topic_mix_matches(self, pair):
        corpus, cols = pair
        rec = Counter(p.topic for p in corpus)
        vec = Counter(cols.topic)
        for topic, n in rec.items():
            if n < 30:  # rare topics are too noisy to pin tightly
                continue
            assert vec.get(topic, 0) == pytest.approx(n, rel=0.25), topic

    def test_popularity_mean_matches(self, pair):
        corpus, cols = pair
        rec = np.mean([p.popularity for p in corpus])
        assert cols.popularity.mean() == pytest.approx(rec, rel=0.15)
