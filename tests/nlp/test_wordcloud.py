"""Tests for word-cloud construction."""

import pytest

from repro.errors import ExtractionError
from repro.nlp.wordcloud import build_wordcloud


class TestBuildWordcloud:
    def test_counts_across_texts(self):
        cloud = build_wordcloud(["outage outage today", "another outage report"])
        assert cloud.unigram_counts["outage"] == 3
        assert cloud.n_texts == 2

    def test_stopwords_removed(self):
        cloud = build_wordcloud(["the service is down and the dish is offline"])
        assert "the" not in cloud.unigram_counts
        # Domain stopwords removed too, so event words can surface.
        assert "service" not in cloud.unigram_counts

    def test_short_words_removed(self):
        cloud = build_wordcloud(["it is ok up we go offline"])
        assert "ok" not in cloud.unigram_counts
        assert "offline" in cloud.unigram_counts

    def test_top_unigrams_ordering(self):
        cloud = build_wordcloud(["alpha alpha alpha beta beta gamma"])
        top = cloud.top_unigrams(2)
        assert top[0] == ("alpha", 3)
        assert top[1] == ("beta", 2)

    def test_extra_stopwords(self):
        cloud = build_wordcloud(["outage outage chimney"],
                                extra_stopwords=["outage"])
        assert "outage" not in cloud.unigram_counts
        assert "chimney" in cloud.unigram_counts

    def test_top_k_rejects_zero(self):
        cloud = build_wordcloud(["alpha"])
        with pytest.raises(ExtractionError):
            cloud.top_unigrams(0)

    def test_empty_corpus(self):
        cloud = build_wordcloud([])
        assert cloud.n_texts == 0
        assert cloud.unigram_counts == {}
