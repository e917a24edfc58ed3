"""Tests for the stopword list."""

from repro.nlp.stopwords import STOPWORDS


class TestStopwords:
    def test_core_function_words_present(self):
        for word in ("the", "and", "is", "not", "with"):
            assert word in STOPWORDS

    def test_domain_words_present(self):
        """Domain ubiquities must be stop-listed so event words surface."""
        for word in ("starlink", "internet", "service", "dish"):
            assert word in STOPWORDS

    def test_signal_words_absent(self):
        """Words the cloud/trend analyses depend on must never be
        stop-listed.  ("down" IS stop-listed — it's a directional filler
        in clouds; the outage keyword matcher has its own dictionary and
        ignores stopwords entirely.)"""
        for word in ("outage", "roaming", "preorder", "delayed",
                     "speed", "email"):
            assert word not in STOPWORDS, word

    def test_keyword_matcher_immune_to_stopwords(self):
        from repro.nlp.keywords import OUTAGE_KEYWORDS

        assert OUTAGE_KEYWORDS.count_matches("everything is down")

    def test_frozen(self):
        assert isinstance(STOPWORDS, frozenset)
