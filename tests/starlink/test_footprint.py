"""Tests for the service footprint timeline."""

import datetime as dt

import pytest

from repro.errors import ConfigError
from repro.starlink.footprint import DEFAULT_FOOTPRINT, Footprint


class TestFootprint:
    def test_us_served_from_beta(self):
        assert DEFAULT_FOOTPRINT.is_available("US", dt.date(2021, 1, 1))

    def test_country_not_yet_served(self):
        assert not DEFAULT_FOOTPRINT.is_available("BR", dt.date(2021, 6, 1))
        assert DEFAULT_FOOTPRINT.is_available("BR", dt.date(2022, 3, 1))

    def test_unknown_country_never_served(self):
        assert not DEFAULT_FOOTPRINT.is_available("KP", dt.date(2022, 12, 1))

    def test_footprint_grows_monotonically(self):
        days = [dt.date(2021, 1, 15), dt.date(2021, 9, 15),
                dt.date(2022, 4, 22), dt.date(2022, 12, 15)]
        counts = [len(DEFAULT_FOOTPRINT.available_countries(d)) for d in days]
        assert counts == sorted(counts)
        assert counts[0] >= 3

    def test_april_2022_outage_had_14_plus_countries(self):
        """§4.1: Redditors from 14 countries confirmed the 22 Apr '22
        outage — at least that many must have been served."""
        served = DEFAULT_FOOTPRINT.available_countries(dt.date(2022, 4, 22))
        assert len(served) >= 14

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Footprint(service_start={})


class TestCorpusIntegration:
    def test_first_hand_posts_only_from_served_countries(self, small_corpus):
        """Experience/outage/speed posts must come from countries with
        service on the posting day (questions can come from anywhere)."""
        from repro.social.authors import AuthorPool

        pool = AuthorPool(
            size=small_corpus.config.author_pool_size or 800,
            seed=small_corpus.config.seed,
            span_start=small_corpus.config.span_start,
            span_end=small_corpus.config.span_end,
        )
        by_handle = {a.handle: a for a in pool.active_on(
            small_corpus.config.span_end
        )}
        first_hand_topics = {"experience_report", "outage_report",
                             "speed_test_share"}
        for post in small_corpus:
            if post.topic not in first_hand_topics:
                continue
            author = by_handle.get(post.author)
            if author is None:
                continue
            assert DEFAULT_FOOTPRINT.is_available(author.country, post.date), (
                f"{post.topic} from {author.country} on {post.date}"
            )

    def test_outage_confirmations_from_served_countries(self, small_corpus):
        import re

        served_codes = set(DEFAULT_FOOTPRINT.service_start)
        for post in small_corpus:
            for comment in post.comment_texts:
                for token in re.findall(r"\b[A-Z]{2}\b", comment):
                    assert token in served_codes
