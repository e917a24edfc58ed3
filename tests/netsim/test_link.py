"""Tests for link profiles and tier sampling."""

import pytest

from repro.errors import ConfigError
from repro.netsim.link import NETWORK_TIERS, LinkProfile, sample_link_profile


class TestLinkProfile:
    def test_valid_profile(self):
        p = LinkProfile(base_latency_ms=20, loss_rate=0.01, jitter_ms=2,
                        bandwidth_mbps=3.0)
        assert p.base_latency_ms == 20

    @pytest.mark.parametrize("kwargs", [
        dict(base_latency_ms=-1, loss_rate=0, jitter_ms=0, bandwidth_mbps=1),
        dict(base_latency_ms=0, loss_rate=1.5, jitter_ms=0, bandwidth_mbps=1),
        dict(base_latency_ms=0, loss_rate=0, jitter_ms=-1, bandwidth_mbps=1),
        dict(base_latency_ms=0, loss_rate=0, jitter_ms=0, bandwidth_mbps=0),
        dict(base_latency_ms=0, loss_rate=0, jitter_ms=0, bandwidth_mbps=1,
             burstiness=2.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            LinkProfile(**kwargs)


class TestTiers:
    def test_weights_sum_to_one(self):
        total = sum(w for _, w in NETWORK_TIERS.values())
        assert total == pytest.approx(1.0)

    def test_all_tiers_valid(self):
        for name, (profile, weight) in NETWORK_TIERS.items():
            assert isinstance(profile, LinkProfile), name
            assert weight > 0

    def test_fiber_beats_terrible(self):
        fiber = NETWORK_TIERS["enterprise_fiber"][0]
        terrible = NETWORK_TIERS["terrible"][0]
        assert fiber.base_latency_ms < terrible.base_latency_ms
        assert fiber.loss_rate < terrible.loss_rate
        assert fiber.bandwidth_mbps > terrible.bandwidth_mbps


class TestSampling:
    def test_deterministic_for_same_stream(self):
        from repro.rng import derive
        a = sample_link_profile(derive(5, "x"))
        b = sample_link_profile(derive(5, "x"))
        assert a == b

    def test_named_tier_respected(self, fresh_rng):
        p = sample_link_profile(fresh_rng, tier="terrible")
        # The anchor is perturbed but stays in its neighbourhood.
        assert p.base_latency_ms > 50

    def test_unknown_tier_raises(self, fresh_rng):
        with pytest.raises(ConfigError):
            sample_link_profile(fresh_rng, tier="carrier_pigeon")

    def test_samples_are_valid_profiles(self, fresh_rng):
        for _ in range(100):
            p = sample_link_profile(fresh_rng)
            assert 0 <= p.loss_rate <= 0.2
            assert p.bandwidth_mbps >= 0.2
            assert 0 <= p.burstiness <= 1
