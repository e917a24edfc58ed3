"""Tests for the corpus generator."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.social.corpus import CorpusConfig, CorpusGenerator


class TestCorpusConfig:
    def test_rejects_reversed_span(self):
        with pytest.raises(ConfigError):
            CorpusConfig(span_start=dt.date(2022, 1, 1),
                         span_end=dt.date(2021, 1, 1))

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            CorpusConfig(posts_per_week=0)

    def test_rejects_unknown_conditioning_mode(self):
        with pytest.raises(ConfigError):
            CorpusConfig(conditioning_mode="vibes")

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_must_be_one(self, workers):
        with pytest.raises(ConfigError, match="workers must be 1"):
            CorpusConfig(workers=workers)

    def test_single_mode_generates(self):
        config = CorpusConfig(
            seed=4,
            span_start=dt.date(2022, 3, 1),
            span_end=dt.date(2022, 3, 14),
            author_pool_size=150,
            conditioning_mode="single",
        )
        corpus = CorpusGenerator(config).generate()
        assert len(corpus) > 0


class TestGeneratedCorpus:
    def test_deterministic(self):
        config = CorpusConfig(
            seed=8,
            span_start=dt.date(2022, 3, 1),
            span_end=dt.date(2022, 3, 31),
            author_pool_size=200,
        )
        a = CorpusGenerator(config).generate()
        b = CorpusGenerator(config).generate()
        assert len(a) == len(b)
        assert [p.text for p in a][:20] == [p.text for p in b][:20]

    def test_posts_within_span(self, small_corpus):
        start = small_corpus.config.span_start
        end = small_corpus.config.span_end
        assert all(start <= p.date <= end for p in small_corpus)

    def test_posts_sorted_by_time(self, small_corpus):
        times = [p.created for p in small_corpus]
        assert times == sorted(times)

    def test_unique_post_ids(self, small_corpus):
        ids = [p.post_id for p in small_corpus]
        assert len(ids) == len(set(ids))

    def test_weekly_volume_near_target(self, full_corpus):
        """§4.1: 372 posts / 8190 upvotes / 5702 comments per week."""
        stats = full_corpus.weekly_stats()
        assert stats["posts_per_week"] == pytest.approx(372, rel=0.15)
        assert stats["upvotes_per_week"] == pytest.approx(8190, rel=0.5)
        assert stats["comments_per_week"] == pytest.approx(5702, rel=0.5)

    def test_speed_share_count_near_target(self, full_corpus):
        """§4.2: ~1750 shared speed tests over the two years."""
        assert len(full_corpus.speed_shares()) == pytest.approx(1750, rel=0.2)

    def test_event_days_busier(self, small_corpus):
        outage_day = len(small_corpus.posts_on(dt.date(2022, 4, 22)))
        quiet_day = len(small_corpus.posts_on(dt.date(2022, 3, 16)))
        assert outage_day > 2 * quiet_day

    def test_outage_day_dominated_by_outage_posts(self, small_corpus):
        posts = small_corpus.posts_on(dt.date(2022, 1, 7))
        outage_share = np.mean([p.topic == "outage_report" for p in posts])
        assert outage_share > 0.3

    def test_roaming_posts_exist_before_announcement(self, small_corpus):
        early = [
            p for p in small_corpus
            if p.topic == "roaming" and p.date < dt.date(2022, 3, 4)
        ]
        assert early

    def test_outage_threads_have_confirmation_comments(self, small_corpus):
        posts = [
            p for p in small_corpus.posts_on(dt.date(2022, 1, 7))
            if p.topic == "outage_report"
        ]
        assert any(p.comment_texts for p in posts)

    def test_big_outage_confirmed_from_many_countries(self, small_corpus):
        """§4.1: Redditors from 14 countries confirmed the Apr 22 outage."""
        posts = [
            p for p in small_corpus.posts_on(dt.date(2022, 4, 22))
            if p.topic == "outage_report"
        ]
        countries = set()
        for p in posts:
            for comment in p.comment_texts:
                for token in comment.replace(",", " ").replace(".", " ").split():
                    if token.isupper() and len(token) == 2:
                        countries.add(token)
        assert len(countries) >= 10

    def test_speed_shares_have_ground_truth(self, small_corpus):
        for post in small_corpus.speed_shares():
            assert post.speed_test is not None
            assert post.topic == "speed_test_share"

    def test_daily_counts_sum_to_total(self, small_corpus):
        series = small_corpus.daily_counts()
        assert series.values.sum() == len(small_corpus)


class TestQueryIndexMemo:
    """posts_on / speed_shares ride one lazily-built by-day index."""

    def test_index_is_built_once_and_reused(self, small_corpus):
        small_corpus.__dict__.pop("_query_index_cache", None)
        small_corpus.posts_on(dt.date(2022, 3, 2))
        memo = small_corpus.__dict__["_query_index_cache"]
        small_corpus.posts_on(dt.date(2022, 3, 3))
        small_corpus.speed_shares()
        assert small_corpus.__dict__["_query_index_cache"] is memo

    def test_results_match_a_linear_scan(self, small_corpus):
        day = dt.date(2022, 4, 22)
        assert small_corpus.posts_on(day) == [
            p for p in small_corpus if p.date == day
        ]
        assert small_corpus.speed_shares() == [
            p for p in small_corpus if p.speed_test is not None
        ]

    def test_missing_day_returns_empty_list(self, small_corpus):
        assert small_corpus.posts_on(dt.date(1999, 1, 1)) == []

    def test_callers_get_fresh_lists(self, small_corpus):
        day = dt.date(2022, 4, 22)
        first = small_corpus.posts_on(day)
        first.clear()
        assert small_corpus.posts_on(day) != []
        shares = small_corpus.speed_shares()
        shares.clear()
        assert small_corpus.speed_shares() != []
