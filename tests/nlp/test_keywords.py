"""Tests for keyword dictionaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExtractionError
from repro.nlp.keywords import OUTAGE_KEYWORDS, KeywordDictionary


class TestOutageDictionary:
    def test_matches_obvious_outage_text(self):
        assert OUTAGE_KEYWORDS.count_matches("Starlink is down, total outage here")

    def test_counts_multiple(self):
        count = OUTAGE_KEYWORDS.count_matches(
            "outage outage outage, everything offline"
        )
        assert count == 4

    def test_ignores_clean_text(self):
        assert OUTAGE_KEYWORDS.count_matches("lovely sunset over the dish today") == 0

    def test_phrase_consumes_tokens(self):
        """'total outage' counts once, not as phrase + unigram."""
        assert OUTAGE_KEYWORDS.count_matches("total outage") == 1

    def test_unigram_outside_phrase_still_counts(self):
        assert OUTAGE_KEYWORDS.count_matches("total outage and another outage") == 2

    def test_no_substring_false_positives(self):
        # "download" contains "down"; token matching must not fire.
        assert OUTAGE_KEYWORDS.count_matches("my download finished quickly") == 0

    def test_case_insensitive(self):
        assert OUTAGE_KEYWORDS.count_matches("OUTAGE in progress")


class TestKeywordDictionary:
    def test_from_terms_lowercases(self):
        d = KeywordDictionary.from_terms("x", ["FOO", "bar baz"])
        assert "foo" in d.unigrams
        assert "bar baz" in d.phrases

    def test_rejects_empty(self):
        with pytest.raises(ExtractionError):
            KeywordDictionary.from_terms("x", [])

    def test_rejects_trigrams(self):
        with pytest.raises(ExtractionError):
            KeywordDictionary.from_terms("x", ["one two three"])

    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_count_non_negative(self, text):
        assert OUTAGE_KEYWORDS.count_matches(text) >= 0
