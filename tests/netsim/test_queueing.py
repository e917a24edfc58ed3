"""Tests for the bottleneck queue model."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.netsim.queueing import BottleneckQueue, profile_for_load, simulate_queue
from repro.rng import derive


@pytest.fixture(scope="module")
def queue():
    return BottleneckQueue(capacity_mbps=10, buffer_packets=30)


class TestAnalyticModel:
    def test_service_time(self, queue):
        # 1200 bytes at 10 Mbps = 0.96 ms.
        assert queue.service_time_ms == pytest.approx(0.96)

    def test_wait_grows_with_load(self, queue):
        waits = [queue.mean_wait_ms(load) for load in (1, 5, 8, 9.5)]
        assert waits == sorted(waits)

    def test_idle_queue_waits_one_service_time(self, queue):
        assert queue.mean_wait_ms(0.0) == pytest.approx(
            queue.service_time_ms, rel=0.01
        )

    def test_blocking_negligible_until_saturation(self, queue):
        assert queue.blocking_probability(5.0) < 1e-6
        assert queue.blocking_probability(9.9) > 0.01

    def test_blocking_grows_past_capacity(self, queue):
        assert queue.blocking_probability(12.0) > queue.blocking_probability(9.9)

    def test_small_buffer_loses_more(self):
        small = BottleneckQueue(capacity_mbps=10, buffer_packets=5)
        large = BottleneckQueue(capacity_mbps=10, buffer_packets=100)
        assert small.blocking_probability(9.0) > large.blocking_probability(9.0)

    def test_jitter_grows_with_load(self, queue):
        assert queue.delay_std_ms(9.0) > queue.delay_std_ms(2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(capacity_mbps=0),
        dict(buffer_packets=0),
        dict(packet_bytes=0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BottleneckQueue(**kwargs)

    def test_rejects_negative_load(self, queue):
        with pytest.raises(ConfigError):
            queue.utilisation(-1)


class TestSimulationAgreement:
    """The discrete-event simulation validates the closed forms."""

    @pytest.mark.parametrize("load", [3.0, 7.0, 9.0])
    def test_mean_wait_matches(self, queue, load):
        rng = derive(71, "queue-sim", str(load))
        sojourns, _ = simulate_queue(rng, queue, load, n_packets=30000)
        assert sojourns.mean() == pytest.approx(
            queue.mean_wait_ms(load), rel=0.08
        )

    def test_loss_matches_at_saturation(self, queue):
        rng = derive(72, "queue-sim")
        _, loss = simulate_queue(rng, queue, 9.9, n_packets=40000)
        assert loss == pytest.approx(
            queue.blocking_probability(9.9), abs=0.015
        )

    def test_jitter_matches(self, queue):
        # The sojourn-time std estimator is heavy-tailed and the queue is
        # autocorrelated, so the tolerance is generous.
        rng = derive(74, "queue-sim")
        sojourns, _ = simulate_queue(rng, queue, 8.0, n_packets=60000)
        assert sojourns.std() == pytest.approx(
            queue.delay_std_ms(8.0), rel=0.25
        )

    def test_rejects_zero_load(self, queue, fresh_rng):
        with pytest.raises(SimulationError):
            simulate_queue(fresh_rng, queue, 0.0)


class TestProfileForLoad:
    def test_light_load_is_clean(self):
        profile = profile_for_load(20, 2.0)
        assert profile.base_latency_ms < 25
        assert profile.loss_rate < 1e-6
        assert profile.jitter_ms < 3

    def test_heavy_load_is_degraded(self):
        light = profile_for_load(20, 2.0)
        heavy = profile_for_load(20, 9.5)
        assert heavy.base_latency_ms > light.base_latency_ms
        assert heavy.jitter_ms > light.jitter_ms
        assert heavy.loss_rate > light.loss_rate
        assert heavy.bandwidth_mbps < light.bandwidth_mbps
        assert heavy.burstiness > light.burstiness

    def test_profile_feeds_the_rest_of_the_stack(self, fresh_rng):
        """A queueing-derived profile must be usable end to end."""
        from repro.netsim.trace import generate_condition_arrays

        profile = profile_for_load(30, 8.0)
        arrays = generate_condition_arrays(profile, fresh_rng, 60)
        assert arrays["latency_ms"].mean() > 30

    def test_rejects_absurd_load(self):
        with pytest.raises(ConfigError):
            profile_for_load(20, 20.0)
