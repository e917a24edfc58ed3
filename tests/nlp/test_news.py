"""Tests for the simulated news index."""

import datetime as dt

import pytest

from repro.errors import AnalysisError
from repro.nlp.news import NewsArticle, NewsIndex

DAY = dt.date(2022, 1, 7)


def article(date=DAY, headline="Starlink suffers global outage",
            body="Users worldwide reported no service."):
    return NewsArticle(date=date, headline=headline, body=body)


class TestNewsIndex:
    def test_search_matches_keyword_in_window(self):
        index = NewsIndex([article()])
        hits = index.search(["outage"], DAY, window_days=1)
        assert len(hits) == 1

    def test_search_misses_outside_window(self):
        index = NewsIndex([article(date=DAY - dt.timedelta(days=10))])
        assert index.search(["outage"], DAY, window_days=3) == []

    def test_search_any_keyword_semantics(self):
        index = NewsIndex([article()])
        hits = index.search(["nonsense", "outage"], DAY)
        assert hits

    def test_require_all(self):
        index = NewsIndex([article()])
        assert index.search(["outage", "starlink"], DAY, require_all=True)
        assert not index.search(["outage", "zebra"], DAY, require_all=True)

    def test_body_terms_searchable(self):
        index = NewsIndex([article()])
        assert index.search(["worldwide"], DAY)

    def test_empty_keywords_raise(self):
        index = NewsIndex([article()])
        with pytest.raises(AnalysisError):
            index.search([], DAY)

    def test_negative_window_raises(self):
        index = NewsIndex([article()])
        with pytest.raises(AnalysisError):
            index.search(["outage"], DAY, window_days=-1)

    def test_add_keeps_sorted(self):
        index = NewsIndex()
        index.add(article(date=DAY + dt.timedelta(days=5)))
        index.add(article(date=DAY))
        dates = [a.date for a in index.search(["outage"], DAY, window_days=5)]
        assert len(dates) == 2
        assert dates == sorted(dates)

    def test_len(self):
        assert len(NewsIndex([article(), article()])) == 2
