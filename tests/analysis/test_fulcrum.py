"""Tests for the §4.2 shifting-fulcrum analysis."""

import numpy as np
import pytest

from repro.analysis.fulcrum import pos_vs_speed
from repro.analysis.speed_tracker import track_speeds
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def fulcrum(full_corpus):
    track = track_speeds(full_corpus)
    return pos_vs_speed(full_corpus, track.median)


class TestPosVsSpeed:
    def test_pos_bounded(self, fulcrum):
        finite = fulcrum.pos.values[~np.isnan(fulcrum.pos.values)]
        assert (finite >= 0).all() and (finite <= 1).all()
        assert len(finite) >= 15

    def test_pos_broadly_follows_speed(self, fulcrum):
        assert fulcrum.correlation() > 0.1

    def test_dec21_vs_apr21_exception(self, fulcrum):
        """Higher speed, drastically lower Pos — conditioning at work."""
        numbers = fulcrum.exception_dec21_vs_apr21()
        assert numbers["speed_dec21"] > numbers["speed_apr21"]
        assert numbers["pos_dec21"] < numbers["pos_apr21"] - 0.05

    def test_2022_inversion(self, fulcrum):
        """Speeds fall Mar–Dec '22 while Pos recovers."""
        trends = fulcrum.inversion_2022()
        assert trends["speed_trend"] < 0
        assert trends["pos_trend"] > 0

    def test_rejects_empty_months(self, small_corpus, fulcrum):
        with pytest.raises(AnalysisError):
            pos_vs_speed(small_corpus, fulcrum.speed, min_strong_posts=10_000)
