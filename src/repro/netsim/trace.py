"""Five-second condition sampling — the telemetry the Teams client reports.

The paper (§3.1): *"The client running on the user-end of MS Teams gathers
network latency, packet loss percent, jitter, and available bandwidth
information every 5 seconds.  When the user session ends, each client
computes the mean, median, and 95th percentile (P95) value for each of
these metrics per session."*

:func:`generate_condition_arrays` produces that stream for one session's
link profile, one array per metric; the record generator aggregates it
per session.  :class:`ConditionSample` is one sample, the input of the
scalar mitigation model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.netsim.link import LinkProfile
from repro.netsim.loss import GilbertElliottLoss

SAMPLE_INTERVAL_S = 5.0


@dataclass(frozen=True)
class ConditionSample:
    """One five-second telemetry sample."""

    t_s: float
    latency_ms: float
    loss_pct: float  # percentage, 0-100, matching the client's report
    jitter_ms: float
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ConfigError("latency and jitter must be non-negative")
        if not 0 <= self.loss_pct <= 100:
            raise ConfigError(f"loss_pct must be in [0, 100], got {self.loss_pct}")
        if self.bandwidth_mbps < 0:
            raise ConfigError("bandwidth must be non-negative")


def generate_condition_arrays(
    profile: LinkProfile,
    rng: np.random.Generator,
    n_intervals: int,
) -> Dict[str, np.ndarray]:
    """Vectorised session trace: one array per metric, length ``n_intervals``.

    The record generator and :class:`~repro.netsim.tuning.MitigationTuner`
    run it: AR(1) jitter with spikes, queueing delay co-moving with
    jitter, run-length Gilbert–Elliott loss and a clipped multiplicative
    bandwidth walk.
    """
    if n_intervals < 1:
        raise SimulationError(f"n_intervals must be >= 1, got {n_intervals}")

    # Jitter: AR(1) around the anchor scale, plus multiplicative spikes.
    persistence, spike_prob, spike_factor = 0.7, 0.05, 3.0
    scale = profile.jitter_ms
    if scale == 0:
        jitter = np.zeros(n_intervals)
    else:
        from scipy.signal import lfilter

        innovation_sd = scale * np.sqrt(1 - persistence**2) * 0.4
        eps = rng.normal(0.0, innovation_sd, size=n_intervals)
        drive = (1 - persistence) * scale
        # AR(1): level_i = persistence * level_{i-1} + drive + eps_i, with
        # level_0 seeded at the anchor scale via the filter's initial state.
        jitter, _ = lfilter(
            [1.0], [1.0, -persistence], drive + eps, zi=[persistence * scale]
        )
        jitter = np.maximum(0.05, jitter)
        spikes = rng.random(n_intervals) < spike_prob
        jitter = np.where(
            spikes, jitter * (1 + (spike_factor - 1) * rng.random(n_intervals)), jitter
        )

    # Latency: baseline + queueing co-moving with jitter + measurement noise.
    queueing = 1.5 * jitter * rng.random(n_intervals)
    noise = np.abs(rng.normal(0, 0.03 * profile.base_latency_ms + 0.5, size=n_intervals))
    latency = profile.base_latency_ms + queueing + noise

    # Loss: run-length Gilbert–Elliott across the whole session.
    # LinkProfile allows burstiness up to 1.0; the GE chain needs < 1.
    chain = GilbertElliottLoss(
        rate=profile.loss_rate, burstiness=min(profile.burstiness, 0.95)
    )
    loss_pct = np.minimum(
        100.0, chain.interval_loss_rates(rng, n_intervals, SAMPLE_INTERVAL_S) * 100
    )

    # Bandwidth: clipped multiplicative random walk around the bottleneck.
    steps = rng.normal(0, 0.05, size=n_intervals)
    walk = profile.bandwidth_mbps * np.exp(np.cumsum(steps))
    bandwidth = np.clip(
        walk, 0.3 * profile.bandwidth_mbps, 1.5 * profile.bandwidth_mbps
    )

    return {
        "latency_ms": latency,
        "loss_pct": loss_pct,
        "jitter_ms": jitter,
        "bandwidth_mbps": bandwidth,
    }
