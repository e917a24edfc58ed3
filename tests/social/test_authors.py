"""Tests for the author population."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.rng import derive
from repro.social.authors import Author, AuthorPool


class TestAuthor:
    def test_rejects_bad_optimism(self):
        with pytest.raises(ConfigError):
            Author(handle="x", joined=dt.date(2021, 1, 1), is_subscriber=True,
                   optimism=2.0, extremity=0.5, verbosity=1.0,
                   country="US", waiting_preorder=False)

    def test_rejects_zero_verbosity(self):
        with pytest.raises(ConfigError):
            Author(handle="x", joined=dt.date(2021, 1, 1), is_subscriber=True,
                   optimism=0.0, extremity=0.5, verbosity=0.0,
                   country="US", waiting_preorder=False)


class TestAuthorPool:
    def test_deterministic(self):
        a = AuthorPool(size=50, seed=3)
        b = AuthorPool(size=50, seed=3)
        assert [x.handle for x in a.active_on(dt.date(2022, 1, 1))] == [
            x.handle for x in b.active_on(dt.date(2022, 1, 1))
        ]

    def test_population_grows(self):
        pool = AuthorPool(size=500, seed=4)
        early = len(pool.active_on(dt.date(2021, 2, 1)))
        late = len(pool.active_on(dt.date(2022, 11, 1)))
        assert early < late <= 500

    def test_sample_respects_activity(self):
        pool = AuthorPool(size=200, seed=5)
        day = dt.date(2021, 6, 1)
        sampled = pool.sample(derive(6, "authors"), day, 50)
        assert len(sampled) == 50
        assert all(a.joined <= day for a in sampled)

    def test_sample_subscriber_returns_subscriber(self):
        pool = AuthorPool(size=200, seed=7)
        day = dt.date(2022, 6, 1)
        served = lambda a: a.country == "US"  # noqa: E731
        subscribers = pool.subscribers_on(day, served)
        assert subscribers.p.sum() == pytest.approx(1.0)
        assert all(a.is_subscriber and a.country == "US"
                   for a in subscribers.authors)
        rng = derive(8, "authors")
        for _ in range(20):
            drawn = subscribers.sample(rng)
            assert drawn.is_subscriber and drawn.country == "US"

    def test_subscriber_pool_falls_back_when_nobody_matches(self):
        pool = AuthorPool(size=200, seed=7)
        day = dt.date(2022, 6, 1)
        narrowed = pool.subscribers_on(day, lambda a: False)
        assert narrowed.authors == pool.subscribers_on(day).authors

    def test_subscriber_pool_needs_an_active_subscriber(self):
        pool = AuthorPool(size=50, seed=3, span_start=dt.date(2021, 1, 1))
        with pytest.raises(ConfigError, match="no active subscribers"):
            pool.subscribers_on(dt.date(2020, 12, 31))

    def test_verbosity_weighting(self):
        pool = AuthorPool(size=300, seed=9)
        day = dt.date(2022, 6, 1)
        sampled = pool.sample(derive(10, "authors"), day, 3000)
        counts = {}
        for a in sampled:
            counts[a.handle] = counts.get(a.handle, 0) + 1
        by_handle = {a.handle: a.verbosity for a in pool.active_on(day)}
        talkative = max(by_handle, key=lambda h: by_handle[h])
        quiet = min(by_handle, key=lambda h: by_handle[h])
        assert counts.get(talkative, 0) >= counts.get(quiet, 0)

    def test_rejects_tiny_pool(self):
        with pytest.raises(ConfigError):
            AuthorPool(size=5)

    def test_country_diversity(self):
        pool = AuthorPool(size=500, seed=11)
        countries = {a.country for a in pool.active_on(dt.date(2022, 12, 1))}
        assert "US" in countries
        assert len(countries) >= 10  # enough for the 14-country outage story
