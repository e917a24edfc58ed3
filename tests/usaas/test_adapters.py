"""Tests for the telemetry/social → signal adapters."""

import pytest

from repro.core.signals import SignalKind
from repro.core.usaas.adapters import social_signals, telemetry_signals
from repro.core.usaas.privacy import PrivacyGuard
from repro.errors import QueryError


class TestTelemetrySignals:
    def test_exports_all_sessions(self, small_dataset):
        series = telemetry_signals(small_dataset, network="starlink")
        n_sessions = small_dataset.n_participants
        implicit = series.filter(kind=SignalKind.IMPLICIT)
        # presence + cam_on + mic_on + drop_off per session.
        assert len(implicit) == 4 * n_sessions

    def test_ratings_exported_as_explicit(self, small_dataset):
        series = telemetry_signals(small_dataset, network="starlink")
        ratings = series.filter(kind=SignalKind.EXPLICIT, metric="rating")
        assert len(ratings) == len(small_dataset.rated_participants())

    def test_user_ids_scrubbed(self, small_dataset):
        series = telemetry_signals(small_dataset, network="starlink")
        PrivacyGuard().assert_scrubbed(series)

    def test_network_attribution_per_row(self, small_dataset):
        labels = [
            "mobile" if "mobile" in p.platform else "fixed"
            for p in small_dataset.participants()
        ]
        series = telemetry_signals(small_dataset, network=labels)
        assert len(series.filter(network="mobile")) > 0
        assert len(series.filter(network="fixed")) > 0

    def test_requires_some_attribution(self, small_dataset):
        with pytest.raises(QueryError):
            telemetry_signals(small_dataset, network="")

    def test_platform_attr_carried(self, small_dataset):
        series = telemetry_signals(small_dataset, network="n")
        signal = next(iter(series))
        assert signal.attr("platform") is not None


class TestSocialSignals:
    def test_one_sentiment_signal_per_post(self, small_corpus):
        series = social_signals(small_corpus)
        sentiment = series.filter(metric="sentiment_polarity")
        assert len(sentiment) == len(small_corpus)

    def test_popularity_weights(self, small_corpus):
        series = social_signals(small_corpus)
        weights = [s.weight for s in series.filter(metric="sentiment_polarity")]
        assert max(weights) > min(weights)
        assert min(weights) >= 1.0

    def test_speed_shares_exported(self, small_corpus):
        series = social_signals(small_corpus)
        speeds = series.filter(metric="reported_downlink_mbps")
        assert len(speeds) == len(small_corpus.speed_shares())

    def test_polarity_bounded(self, small_corpus):
        series = social_signals(small_corpus)
        assert all(
            -1 <= s.value <= 1
            for s in series.filter(metric="sentiment_polarity")
        )

    def test_authors_scrubbed(self, small_corpus):
        PrivacyGuard().assert_scrubbed(social_signals(small_corpus))
