"""Tests for the Fig. 1 pipeline on sweep data (controlled ground truth)."""

import numpy as np
import pytest

from repro.engagement.curves import DEFAULT_EDGES, fig1_curves
from repro.engagement.metrics import normalize_to_best
from repro.errors import AnalysisError
from repro.netsim.link import LinkProfile
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.generator import focal_participants


@pytest.fixture(scope="module")
def latency_sweep():
    gen = CallDatasetGenerator(GeneratorConfig(n_calls=0, seed=55))
    base = LinkProfile(base_latency_ms=20, loss_rate=0.001, jitter_ms=2,
                       bandwidth_mbps=3.5)
    ds = gen.generate_sweep(
        base, "latency", [15.0, 80.0, 150.0, 290.0], calls_per_value=80
    )
    return focal_participants(ds)


def _slope(curve, x_low, x_high):
    """Least-squares slope of a binned curve over [x_low, x_high]."""
    mask = (
        (curve.centers >= x_low) & (curve.centers <= x_high)
        & ~np.isnan(curve.stat)
    )
    assert mask.sum() >= 2, f"not enough bins in [{x_low}, {x_high}]"
    return float(np.polyfit(curve.centers[mask], curve.stat[mask], 1)[0])


class TestFig1Curves:
    def test_panels_cover_all_metrics(self, latency_sweep):
        result = fig1_curves(latency_sweep, use_control_windows=False)
        assert set(result.curves) == set(DEFAULT_EDGES)
        for panel in result.curves.values():
            assert set(panel) == {"presence_pct", "cam_on_pct", "mic_on_pct"}

    def test_latency_panel_monotone_mic(self, latency_sweep):
        result = fig1_curves(latency_sweep, use_control_windows=False,
                             min_bin_count=10)
        curve = result.panel("latency_ms")["mic_on_pct"]
        finite = curve.stat[~np.isnan(curve.stat)]
        assert len(finite) >= 3
        assert finite[0] > finite[-1]

    def test_relative_drop_matches_paper_direction(self, latency_sweep):
        result = fig1_curves(latency_sweep, use_control_windows=False,
                             min_bin_count=10)
        drop = result.relative_drop_pct("latency_ms", "mic_on_pct")
        assert drop > 15.0  # paper: >25% at 300 ms

    def test_slope_steeper_before_150(self, latency_sweep):
        result = fig1_curves(latency_sweep, use_control_windows=False,
                             min_bin_count=10)
        curve = result.panel("latency_ms")["mic_on_pct"]
        early = _slope(curve, 0, 170)
        late = _slope(curve, 140, 300)
        assert early < 0
        assert abs(early) > abs(late)

    def test_include_drop_adds_curve(self, latency_sweep):
        result = fig1_curves(latency_sweep, use_control_windows=False,
                             include_drop=True)
        assert "dropped_early" in result.panel("latency_ms")

    def test_unknown_panel_raises(self, latency_sweep):
        result = fig1_curves(latency_sweep, use_control_windows=False)
        with pytest.raises(AnalysisError):
            result.panel("rtt")

    def test_empty_pool_raises(self):
        with pytest.raises(AnalysisError):
            fig1_curves([])


class TestMetricsHelpers:
    def test_normalize_to_best(self):
        normalized = normalize_to_best([50.0, 100.0, np.nan])
        assert normalized[1] == 100.0
        assert normalized[0] == 50.0
        assert np.isnan(normalized[2])

    def test_normalize_rejects_all_nan(self):
        with pytest.raises(AnalysisError):
            normalize_to_best([np.nan])
