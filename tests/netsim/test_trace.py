"""Tests for five-second condition trace generation."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.netsim.link import LinkProfile
from repro.netsim.trace import (
    SAMPLE_INTERVAL_S,
    ConditionSample,
    generate_condition_arrays,
)
from repro.rng import derive
from tests.netsim.oracle import TraceGenerator


def profile(lat=30, loss=0.005, jit=3, bw=3.0):
    return LinkProfile(base_latency_ms=lat, loss_rate=loss, jitter_ms=jit,
                       bandwidth_mbps=bw)


def sample(t=0.0, lat=20, loss=0.5, jit=2, bw=3.0):
    return ConditionSample(t_s=t, latency_ms=lat, loss_pct=loss,
                           jitter_ms=jit, bandwidth_mbps=bw)


class TestConditionSample:
    def test_valid(self):
        assert sample().latency_ms == 20

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            sample(lat=-1)

    def test_rejects_loss_over_100(self):
        with pytest.raises(ConfigError):
            sample(loss=150)


class TestGenerateConditionArrays:
    def test_shapes_and_keys(self, fresh_rng):
        arrays = generate_condition_arrays(profile(), fresh_rng, 100)
        assert set(arrays) == {"latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps"}
        assert all(v.shape == (100,) for v in arrays.values())

    def test_rejects_zero_intervals(self, fresh_rng):
        with pytest.raises(SimulationError):
            generate_condition_arrays(profile(), fresh_rng, 0)

    def test_latency_anchored_to_profile(self):
        rng = derive(31, "trace")
        arrays = generate_condition_arrays(profile(lat=100, jit=1), rng, 360)
        # Baseline plus queueing and noise, never below the baseline.
        assert arrays["latency_ms"].min() >= 100
        assert arrays["latency_ms"].mean() <= 115

    def test_loss_rate_tracks_profile(self):
        rng = derive(32, "trace-loss")
        arrays = generate_condition_arrays(profile(loss=0.02), rng, 720)
        assert arrays["loss_pct"].mean() == pytest.approx(2.0, abs=0.8)

    def test_jitter_mean_tracks_scale(self):
        rng = derive(21, "jitter")
        arrays = generate_condition_arrays(profile(jit=5), rng, 2000)
        jitter = arrays["jitter_ms"]
        assert jitter.mean() == pytest.approx(5.0, rel=0.15)
        assert (jitter > 0).all()

    def test_jitter_samples_positive(self):
        rng = derive(22, "jitter-pos")
        arrays = generate_condition_arrays(profile(jit=1), rng, 500)
        assert (arrays["jitter_ms"] > 0).all()

    def test_jitter_temporal_correlation(self):
        """AR(1) jitter: a jittery stretch of a session stays jittery."""
        rng = derive(24, "jitter-corr")
        arrays = generate_condition_arrays(profile(jit=5), rng, 3000)
        jitter = arrays["jitter_ms"]
        assert np.corrcoef(jitter[:-1], jitter[1:])[0, 1] > 0.3

    def test_statistics_match_scalar_generator(self):
        """Fast path and scalar path agree on per-session aggregates."""
        p = profile(lat=60, loss=0.01, jit=6, bw=2.0)
        fast_rng = derive(33, "arrays")
        slow_rng = derive(34, "scalar")
        arrays = generate_condition_arrays(p, fast_rng, 720)
        trace = TraceGenerator(p).generate(slow_rng, 720 * SAMPLE_INTERVAL_S)
        agg = trace.aggregate()
        assert arrays["latency_ms"].mean() == pytest.approx(
            agg["latency_ms"]["mean"], rel=0.1
        )
        assert arrays["jitter_ms"].mean() == pytest.approx(
            agg["jitter_ms"]["mean"], rel=0.3
        )
        assert arrays["loss_pct"].mean() == pytest.approx(
            agg["loss_pct"]["mean"], abs=0.5
        )

    def test_bandwidth_clipped_to_band(self, fresh_rng):
        arrays = generate_condition_arrays(profile(bw=2.0), fresh_rng, 500)
        assert arrays["bandwidth_mbps"].min() >= 0.6 - 1e-9
        assert arrays["bandwidth_mbps"].max() <= 3.0 + 1e-9

    def test_zero_jitter_profile(self, fresh_rng):
        p = LinkProfile(base_latency_ms=10, loss_rate=0.0, jitter_ms=0.0,
                        bandwidth_mbps=1.0)
        arrays = generate_condition_arrays(p, fresh_rng, 50)
        assert (arrays["jitter_ms"] == 0).all()
        assert (arrays["loss_pct"] == 0).all()
