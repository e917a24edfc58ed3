"""Tests for the platform catalog."""

import pytest

from repro.errors import ConfigError
from repro.netsim.mitigation import MitigationStack
from repro.telemetry.platforms import PLATFORMS, Platform


class TestCatalog:
    def test_four_platforms(self):
        assert len(PLATFORMS) == 4  # matches Fig. 3's four curves

    def test_population_shares_sum_to_one(self):
        total = sum(p.population_share for p in PLATFORMS.values())
        assert total == pytest.approx(1.0)

    def test_mobile_more_drop_sensitive_than_pc(self):
        pc = max(
            p.drop_sensitivity for p in PLATFORMS.values() if not p.is_mobile
        )
        mobile = min(
            p.drop_sensitivity for p in PLATFORMS.values() if p.is_mobile
        )
        assert mobile > pc

    def test_mobile_weaker_mitigation(self):
        for platform in PLATFORMS.values():
            if platform.is_mobile:
                assert platform.mitigation_strength < 1.0

class TestPlatform:
    def test_mitigation_stack_scaled(self):
        android = PLATFORMS["android_mobile"]
        base = MitigationStack()
        scaled = android.mitigation_stack(base)
        assert scaled.fec_efficiency == pytest.approx(
            base.fec_efficiency * android.mitigation_strength
        )
        assert scaled.audio_concealment < base.audio_concealment

    def test_full_strength_stack_unchanged(self):
        windows = PLATFORMS["windows_pc"]
        base = MitigationStack()
        assert windows.mitigation_stack(base) == base

    def test_rejects_invalid_rates(self):
        with pytest.raises(ConfigError):
            Platform(
                key="x", is_mobile=False, base_cam_rate=1.5, base_mic_rate=0.5,
                drop_sensitivity=1, engagement_sensitivity=1,
                mitigation_strength=1, population_share=0.1,
            )

    def test_rejects_mitigation_above_one(self):
        with pytest.raises(ConfigError):
            Platform(
                key="x", is_mobile=False, base_cam_rate=0.5, base_mic_rate=0.5,
                drop_sensitivity=1, engagement_sensitivity=1,
                mitigation_strength=1.2, population_share=0.1,
            )
