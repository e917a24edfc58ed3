"""Tests for the sentiment analyzer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExtractionError
from repro.nlp import sentiment as sentiment_mod
from repro.nlp.lexicon import NEGATIVE, POSITIVE, VALENCES
from repro.nlp.sentiment import STRONG_THRESHOLD, SentimentAnalyzer, SentimentScores


@pytest.fixture(scope="module")
def analyzer():
    return SentimentAnalyzer()


class TestLexicon:
    def test_no_polarity_overlap(self):
        assert not set(POSITIVE) & set(NEGATIVE)

    def test_valences_bounded(self):
        assert all(-1 <= v <= 1 for v in VALENCES.values())

    def test_domain_terms_present(self):
        for word in ("outage", "disconnects", "slow", "delayed"):
            assert VALENCES[word] < 0
        for word in ("fast", "reliable", "amazing"):
            assert VALENCES[word] > 0


class TestScores:
    def test_must_sum_to_one(self):
        with pytest.raises(ExtractionError):
            SentimentScores(positive=0.5, negative=0.5, neutral=0.5)

    def test_strong_flags(self):
        s = SentimentScores(positive=0.75, negative=0.05, neutral=0.2)
        assert s.is_strong_positive and not s.is_strong_negative

    def test_polarity(self):
        s = SentimentScores(positive=0.6, negative=0.1, neutral=0.3)
        assert s.polarity == pytest.approx(0.5)


class TestAnalyzer:
    def test_empty_text_neutral(self, analyzer):
        s = analyzer.score("")
        assert s.neutral == 1.0

    def test_clearly_positive_is_strong(self, analyzer):
        s = analyzer.score(
            "Absolutely love this, amazing speeds, fantastic service, so happy!"
        )
        assert s.is_strong_positive

    def test_clearly_negative_is_strong(self, analyzer):
        s = analyzer.score(
            "Total outage again, completely unusable garbage, so frustrated."
        )
        assert s.is_strong_negative

    def test_neutral_stays_neutral(self, analyzer):
        s = analyzer.score("Mounted the dish on the roof near the chimney.")
        assert not s.is_strong_positive and not s.is_strong_negative
        assert s.neutral > 0.8

    def test_negation_flips(self, analyzer):
        positive = analyzer.score("the service is great")
        negated = analyzer.score("the service is not great")
        assert positive.polarity > 0
        assert negated.polarity < 0

    def test_negation_weaker_than_antonym(self, analyzer):
        negated = analyzer.score("not great")
        direct = analyzer.score("terrible")
        assert abs(negated.polarity) < abs(direct.polarity)

    def test_intensifier_boosts(self, analyzer):
        plain = analyzer.score("the connection is slow")
        boosted = analyzer.score("the connection is extremely slow")
        assert boosted.negative > plain.negative

    def test_dampener_reduces(self, analyzer):
        plain = analyzer.score("the connection is slow")
        damped = analyzer.score("the connection is slightly slow")
        assert damped.negative < plain.negative

    def test_exclamation_boosts(self, analyzer):
        calm = analyzer.score("this is amazing")
        excited = analyzer.score("this is amazing!!!")
        assert excited.positive > calm.positive

    def test_caps_boost(self, analyzer):
        quiet = analyzer.score("service is terrible today")
        shouty = analyzer.score("service is TERRIBLE today")
        assert shouty.negative > quiet.negative

    def test_long_unambiguous_rant_still_strong(self, analyzer):
        rant = (
            "This service has been terrible all month, constant outages "
            "and endless disconnects, the speeds are awful, support is "
            "useless, and I am beyond frustrated with the whole pathetic "
            "experience."
        )
        assert analyzer.score(rant).is_strong_negative

    def test_mixed_text_not_strong(self, analyzer):
        mixed = "The speeds are great but the outages are terrible."
        s = analyzer.score(mixed)
        assert not s.is_strong_positive and not s.is_strong_negative

    @given(st.text(max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_scores_always_valid(self, text):
        s = SentimentAnalyzer().score(text)
        assert 0 <= s.positive <= 1
        assert 0 <= s.negative <= 1
        assert 0 <= s.neutral <= 1
        assert s.positive + s.negative + s.neutral == pytest.approx(1.0)

    def test_strong_threshold_is_paper_value(self):
        assert STRONG_THRESHOLD == 0.7

    def test_score_many_matches_per_text(self, analyzer):
        texts = [
            "starlink is amazing, extremely fast!!",
            "not great, constant outages 😡",
            "",
            "starlink is amazing, extremely fast!!",  # duplicate -> memo
            "SLOW and unreliable today",
        ]
        assert analyzer.score_many(texts) == [
            analyzer.score(t) for t in texts
        ]

    def test_score_many_accepts_generators(self, analyzer):
        scores = analyzer.score_many(t for t in ["good", "bad"])
        assert len(scores) == 2

    def test_emoji_carry_sentiment(self, analyzer):
        happy = analyzer.score("dishy arrived today 🚀 🎉")
        angry = analyzer.score("third outage this week 😡 🤬")
        assert happy.polarity > 0.2
        assert angry.polarity < -0.3

    def test_emoji_tokenized_individually(self):
        from repro.nlp.tokenize import tokenize

        tokens = tokenize("love it 🚀🎉")
        assert "🚀" in tokens and "🎉" in tokens

    def test_emoji_kept_out_of_wordclouds(self):
        from repro.nlp.wordcloud import build_wordcloud

        cloud = build_wordcloud(["outage outage 😡 😡 😡"])
        assert "😡" not in cloud.unigram_counts
        assert cloud.unigram_counts["outage"] == 2


class TestMemoCap:
    def test_memo_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(sentiment_mod, "MEMO_CAP", 8)
        analyzer = SentimentAnalyzer()
        analyzer.score_many(f"distinct text number {i}" for i in range(50))
        assert len(analyzer._memo) == 8

    def test_eviction_is_lru(self, monkeypatch):
        monkeypatch.setattr(sentiment_mod, "MEMO_CAP", 2)
        analyzer = SentimentAnalyzer()
        analyzer.score_many(["alpha", "beta"])
        # Touch alpha so beta is the least recently used, then insert.
        analyzer.score_many(["alpha", "gamma"])
        assert len(analyzer._memo) == 2
        assert "alpha" in analyzer._memo and "beta" not in analyzer._memo

    def test_scores_byte_identical_at_any_cap(self, monkeypatch):
        texts = [f"repetitive outage report {i % 5}" for i in range(40)]
        unbounded = SentimentAnalyzer().score_many(texts)
        monkeypatch.setattr(sentiment_mod, "MEMO_CAP", 1)
        tiny = SentimentAnalyzer().score_many(texts)
        assert unbounded == tiny

    def test_adversarial_distinct_flood_stays_bounded(self):
        """The brigade threat: unbounded distinct texts must not grow
        the memo without bound."""
        analyzer = SentimentAnalyzer()
        analyzer.score_many(
            f"Completely unusable tonight, ticket {i}!!"
            for i in range(sentiment_mod.MEMO_CAP + 500)
        )
        assert len(analyzer._memo) == sentiment_mod.MEMO_CAP
