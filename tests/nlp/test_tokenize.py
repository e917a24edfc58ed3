"""Tests for tokenisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.tokenize import bigrams, tokenize, words


class TestTokenize:
    def test_basic(self):
        assert tokenize("Starlink is fast") == ["Starlink", "is", "fast"]

    def test_contractions_kept(self):
        assert "isn't" in tokenize("it isn't working")

    def test_urls_stripped(self):
        tokens = tokenize("see https://example.com/x?y=1 for details")
        assert "see" in tokens and "details" in tokens
        assert not any("example" in t for t in tokens)

    def test_subreddit_mentions_stripped(self):
        tokens = tokenize("posted on r/Starlink by u/tuckstruck")
        assert "posted" in tokens
        assert not any("tuckstruck" in t for t in tokens)

    def test_numbers_preserved(self):
        assert "112.5" in tokenize("got 112.5 Mbps")

    def test_exclamation_bursts_are_tokens(self):
        assert "!!!" in tokenize("amazing!!!")

    def test_lowercase_option(self):
        assert tokenize("FAST Speeds", lowercase=True) == ["fast", "speeds"]

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            tokenize(42)

    @given(st.text(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_never_crashes_and_returns_strings(self, text):
        tokens = tokenize(text)
        assert all(isinstance(t, str) and t for t in tokens)


class TestWords:
    def test_lowercased_alpha_only(self):
        assert words("Got 50 Mbps TODAY!") == ["got", "mbps", "today"]


class TestBigrams:
    def test_pairs(self):
        assert bigrams(["a", "b", "c"]) == ["a b", "b c"]

    def test_short_input(self):
        assert bigrams(["only"]) == []
        assert bigrams([]) == []
