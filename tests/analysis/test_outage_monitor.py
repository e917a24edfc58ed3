"""Tests for the Fig. 6 outage-keyword monitor."""

import datetime as dt

import pytest

from repro.analysis.outage_monitor import outage_keyword_series
from repro.analysis.sentiment_timeline import sentiment_timeline
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def scored(full_corpus):
    return sentiment_timeline(full_corpus)


@pytest.fixture(scope="module")
def series(full_corpus, scored):
    return outage_keyword_series(full_corpus)


class TestOutageSeries:
    def test_top_spikes_are_jan7_and_aug30(self, series):
        """Fig. 6: the two largest keyword spikes."""
        spikes = {day for day, _ in series.top_spike_days(2)}
        assert spikes == {dt.date(2022, 1, 7), dt.date(2022, 8, 30)}

    def test_april22_present_but_below_top2(self, series):
        top2_floor = min(v for _, v in series.top_spike_days(2))
        april = series.occurrences[dt.date(2022, 4, 22)]
        assert 0 < april < top2_floor

    def test_transient_peaks_numerous(self, series):
        """"numerous shorter peaks ... correspond to local transient
        outages" — well above what the three headline events explain."""
        headline_value = min(v for _, v in series.top_spike_days(2))
        transients = series.transient_peak_days(
            spike_threshold=headline_value * 0.3, floor=3.0
        )
        assert len(transients) > 50

    def test_negative_filter_reduces_counts(self, full_corpus, scored):
        filtered = outage_keyword_series(full_corpus, negative_only=True)
        unfiltered = outage_keyword_series(full_corpus, negative_only=False)
        assert unfiltered.occurrences.values.sum() > (
            filtered.occurrences.values.sum()
        )

    def test_threads_counted(self, series):
        assert series.threads[dt.date(2022, 1, 7)] > 10

    def test_transient_validation(self, series):
        with pytest.raises(AnalysisError):
            series.transient_peak_days(spike_threshold=1.0, floor=2.0)
