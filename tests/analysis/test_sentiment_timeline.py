"""Tests for the Fig. 5a pipeline."""

import datetime as dt

import pytest

from repro.analysis.sentiment_timeline import sentiment_timeline
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def timeline(full_corpus):
    return sentiment_timeline(full_corpus)


class TestSentimentTimeline:
    def test_series_span_matches_corpus(self, timeline, full_corpus):
        assert timeline.strong_positive.start == full_corpus.config.span_start
        assert timeline.strong_positive.end == full_corpus.config.span_end

    def test_every_post_scored(self, timeline, full_corpus):
        assert len(timeline.scores) == len(full_corpus)

    def test_counts_consistent_with_scores(self, timeline, full_corpus):
        strong_pos = sum(
            1 for s in timeline.scores.values() if s.is_strong_positive
        )
        assert timeline.strong_positive.values.sum() == strong_pos

    def test_top3_peaks_are_the_paper_events(self, timeline):
        """The headline claim of §4.1."""
        peaks = {day for day, _ in timeline.top_peaks(3)}
        assert peaks == {
            dt.date(2021, 2, 9),
            dt.date(2021, 11, 24),
            dt.date(2022, 4, 22),
        }

    def test_peak_polarities(self, timeline):
        assert timeline.peak_polarity(dt.date(2021, 2, 9)) == "positive"
        assert timeline.peak_polarity(dt.date(2021, 11, 24)) == "negative"
        assert timeline.peak_polarity(dt.date(2022, 4, 22)) == "negative"

    def test_polarity_rejects_empty_day(self, timeline, full_corpus):
        # Find a day with zero strong posts.
        for day, value in timeline.combined().items():
            if value == 0:
                with pytest.raises(AnalysisError):
                    timeline.peak_polarity(day)
                return
        pytest.skip("every day had strong posts")

    def test_combined_is_sum(self, timeline):
        combined = timeline.combined()
        total = (
            timeline.strong_positive.values + timeline.strong_negative.values
        )
        assert (combined.values == total).all()
