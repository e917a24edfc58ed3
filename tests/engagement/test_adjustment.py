"""Tests for §6 confounder adjustment."""

import numpy as np
import pytest

from repro.engagement.adjustment import (
    adjusted_curve,
    composition_bias_demo,
    stratify_by_device_class,
    stratify_by_platform,
)
from repro.errors import AnalysisError
from tests.telemetry.test_schema import participant


def make_participant(platform, latency, mic_on, conditioning=0.5, uid="u"):
    base = participant()
    network = {
        "latency_ms": {"mean": latency, "median": latency, "p95": latency},
        "loss_pct": {"mean": 0.1, "median": 0.1, "p95": 0.1},
        "jitter_ms": {"mean": 2.0, "median": 2.0, "p95": 2.0},
        "bandwidth_mbps": {"mean": 3.5, "median": 3.5, "p95": 3.5},
    }
    return type(base)(
        call_id="c", user_id=uid, platform=platform, country="US",
        session_duration_s=600, presence_pct=80, cam_on_pct=50,
        mic_on_pct=mic_on, dropped_early=False, network=network,
        conditioning=conditioning,
    )


def confounded_pool():
    """PC users: good networks, high mic baseline.  Mobile: bad networks,
    low mic baseline.  The network itself has NO effect within strata —
    all the raw slope is composition."""
    pool = []
    for i in range(60):
        pool.append(make_participant("windows_pc", 20, 60, uid=f"p{i}"))
        pool.append(make_participant("android_mobile", 250, 30, uid=f"m{i}"))
    # Minority crossovers give every stratum support in both bins.
    for i in range(10):
        pool.append(make_participant("windows_pc", 250, 60, uid=f"px{i}"))
        pool.append(make_participant("android_mobile", 20, 30, uid=f"mx{i}"))
    return pool


class TestStratifiers:
    def test_device_class(self):
        assert stratify_by_device_class(make_participant("ios_mobile", 1, 1)) == "mobile"
        assert stratify_by_device_class(make_participant("mac_pc", 1, 1)) == "pc"

    def test_platform_identity(self):
        assert stratify_by_platform(make_participant("mac_pc", 1, 1)) == "mac_pc"


class TestAdjustedCurve:
    def test_pure_composition_bias_removed(self):
        """With zero within-stratum effect, the adjusted curve is flat."""
        result = adjusted_curve(
            confounded_pool(), "latency_ms", "mic_on_pct",
            edges=[0, 100, 300], stratify=stratify_by_device_class,
        )
        raw_slope = result.raw.stat[1] - result.raw.stat[0]
        adjusted_slope = result.adjusted.stat[1] - result.adjusted.stat[0]
        assert raw_slope < -10  # naive view: latency destroys Mic On
        assert abs(adjusted_slope) < 2  # adjusted view: no effect

    def test_confounder_gap_positive_when_confounded(self):
        result = adjusted_curve(
            confounded_pool(), "latency_ms", "mic_on_pct",
            edges=[0, 100, 300], stratify=stratify_by_device_class,
        )
        raw, adjusted = result.raw.stat, result.adjusted.stat
        both = ~(np.isnan(raw) | np.isnan(adjusted))
        assert np.abs(raw[both] - adjusted[both]).mean() > 3

    def test_reference_mix_sums_to_one(self):
        result = adjusted_curve(
            confounded_pool(), "latency_ms", "mic_on_pct",
            edges=[0, 100, 300], stratify=stratify_by_device_class,
        )
        assert sum(result.reference_mix.values()) == pytest.approx(1.0)

    def test_thin_strata_leave_nan(self):
        pool = confounded_pool()
        result = adjusted_curve(
            pool, "latency_ms", "mic_on_pct",
            edges=[0, 100, 200, 300], stratify=stratify_by_device_class,
            min_stratum_bin_count=5,
        )
        assert np.isnan(result.adjusted.stat[1])  # empty middle bin

    def test_single_stratum_rejected(self):
        pool = [make_participant("windows_pc", 20, 60, uid=f"u{i}")
                for i in range(20)]
        with pytest.raises(AnalysisError):
            adjusted_curve(pool, "latency_ms", "mic_on_pct", edges=[0, 300],
                           stratify=stratify_by_device_class)

    def test_rejects_unknown_metrics(self):
        with pytest.raises(AnalysisError):
            adjusted_curve(confounded_pool(), "rtt", "mic_on_pct", [0, 1])
        with pytest.raises(AnalysisError):
            adjusted_curve(confounded_pool(), "latency_ms", "smiles", [0, 1])

    def test_empty_pool_rejected(self):
        with pytest.raises(AnalysisError):
            adjusted_curve([], "latency_ms", "mic_on_pct", [0, 1])


class TestCompositionBiasDemo:
    def test_reports_bias_decomposition(self):
        numbers = composition_bias_demo(
            confounded_pool(), edges=(0, 100, 300)
        )
        assert numbers["raw_drop_pct"] > numbers["adjusted_drop_pct"]
        assert numbers["composition_bias_pct"] == pytest.approx(
            numbers["raw_drop_pct"] - numbers["adjusted_drop_pct"]
        )

    def test_on_simulated_data_network_effect_survives(self, small_dataset):
        """On the real simulation both effects exist: adjustment shrinks
        but does not erase the latency effect."""
        numbers = composition_bias_demo(
            small_dataset.participants(), edges=(0, 120, 350)
        )
        assert numbers["adjusted_drop_pct"] > 0  # network genuinely matters
