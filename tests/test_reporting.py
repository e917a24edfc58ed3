"""Tests for the study-report generator."""

import pytest

from repro.errors import AnalysisError
from repro.reporting import starlink_report, teams_report


class TestTeamsReport:
    def test_contains_all_sections(self, small_dataset):
        text = teams_report(small_dataset)
        assert "Implicit user signals" in text
        assert "Fig. 1" in text
        assert "Fig. 2" in text
        assert "Fig. 4" in text
        assert "spearman" in text

    def test_rejects_empty(self):
        from repro.telemetry.store import CallDataset

        with pytest.raises(AnalysisError):
            teams_report(CallDataset())


class TestStarlinkReport:
    def test_contains_all_sections(self, small_corpus):
        text = starlink_report(small_corpus, n_peaks=2)
        assert "Explicit user signals" in text
        assert "sentiment peaks" in text
        assert "Outage-keyword monitor" in text
        assert "downlink speeds" in text

    def test_rejects_empty(self):
        from repro.social.corpus import CorpusConfig, RedditCorpus

        with pytest.raises(AnalysisError):
            starlink_report(RedditCorpus([], CorpusConfig()))
