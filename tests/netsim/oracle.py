"""Oracles for the session condition trace and its loss fast path.

* :func:`interval_loss_rates` is the loop
  :meth:`~repro.netsim.loss.GilbertElliottLoss.interval_loss_rates` ran
  before it bound its draws to locals and walked each bad run's
  intervals incrementally.  Tests pin the code in ``src/`` against it
  draw for draw.
* :class:`TraceGenerator` is the per-sample form of
  :func:`~repro.netsim.trace.generate_condition_arrays`: one
  :class:`JitterProcess` step, one packet-by-packet Gilbert–Elliott
  interval (:func:`interval_loss_rate`) and one bandwidth step per
  five-second sample, aggregated per session by :class:`ConditionTrace`.
  Tests check that the array path matches its per-session statistics.

Nothing in ``src/`` calls any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.netsim.link import LinkProfile
from repro.netsim.loss import PACKETS_PER_SECOND, GilbertElliottLoss
from repro.netsim.trace import SAMPLE_INTERVAL_S, ConditionSample


def interval_loss_rates(
    chain: GilbertElliottLoss,
    rng: np.random.Generator,
    n_intervals: int,
    duration_s: float = 5.0,
) -> np.ndarray:
    """Realised loss fraction for ``n_intervals`` consecutive intervals."""
    if n_intervals < 1:
        raise ConfigError(f"n_intervals must be >= 1, got {n_intervals}")
    packets_per_interval = max(1, int(duration_s * PACKETS_PER_SECOND))
    total = n_intervals * packets_per_interval
    if chain.rate == 0:
        return np.zeros(n_intervals)
    p_gb, p_bg = chain._transition_probs()
    if p_gb >= 1.0:  # permanently bad
        lost = rng.binomial(
            packets_per_interval, chain.bad_loss, size=n_intervals
        )
        return lost / packets_per_interval

    bad_packets = np.zeros(n_intervals, dtype=float)
    pos = 0
    bad = chain._state_bad
    while pos < total:
        p_leave = p_bg if bad else p_gb
        if p_leave <= 0:
            run = total - pos
        else:
            run = int(rng.geometric(p_leave))
        run = min(run, total - pos)
        if bad and run > 0:
            start_iv = pos // packets_per_interval
            end_iv = (pos + run - 1) // packets_per_interval
            for iv in range(start_iv, end_iv + 1):
                lo = max(pos, iv * packets_per_interval)
                hi = min(pos + run, (iv + 1) * packets_per_interval)
                bad_packets[iv] += rng.binomial(hi - lo, chain.bad_loss)
        pos += run
        bad = not bad
    chain._state_bad = bad
    return bad_packets / packets_per_interval


def interval_loss_rate(chain: GilbertElliottLoss, rng: np.random.Generator,
                       duration_s: float = 5.0) -> float:
    """Step ``chain`` packet by packet through one interval.

    State persists across calls, so consecutive intervals of a session
    show realistic loss correlation (a burst can straddle intervals).
    """
    if chain.rate == 0:
        return 0.0
    n_packets = max(1, int(duration_s * PACKETS_PER_SECOND))
    p_gb, p_bg = chain._transition_probs()
    lost = 0
    bad = chain._state_bad
    # Vectorised draw: one uniform per packet for transition, one for loss.
    trans = rng.random(n_packets)
    drops = rng.random(n_packets)
    for i in range(n_packets):
        if bad:
            if drops[i] < chain.bad_loss:
                lost += 1
            if trans[i] < p_bg:
                bad = False
        else:
            if trans[i] < p_gb:
                bad = True
    chain._state_bad = bad
    return lost / n_packets


@dataclass
class JitterProcess:
    """AR(1) jitter with spike events.

    Attributes:
        scale_ms: anchor (long-run mean) jitter of the path.
        persistence: AR(1) coefficient in [0, 1); higher → smoother.
        spike_prob: per-interval probability of a jitter spike.
        spike_factor: multiplicative size of a spike.
    """

    scale_ms: float
    persistence: float = 0.7
    spike_prob: float = 0.05
    spike_factor: float = 3.0
    _level: float = field(default=0.0, repr=False)
    _initialised: bool = field(default=False, repr=False)

    def sample_interval(self, rng: np.random.Generator) -> float:
        """Mean jitter (ms) over the next five-second interval."""
        if self.scale_ms == 0:
            return 0.0
        if not self._initialised:
            self._level = self.scale_ms
            self._initialised = True
        innovation_sd = self.scale_ms * np.sqrt(1 - self.persistence**2) * 0.4
        self._level = (
            self.persistence * self._level
            + (1 - self.persistence) * self.scale_ms
            + rng.normal(0.0, innovation_sd)
        )
        self._level = max(0.05, self._level)
        value = self._level
        if rng.random() < self.spike_prob:
            value *= 1 + (self.spike_factor - 1) * rng.random()
        return float(value)

    def reset(self) -> None:
        """Forget state between sessions."""
        self._initialised = False
        self._level = 0.0


class ConditionTrace:
    """An ordered list of samples with per-session aggregation."""

    METRICS = ("latency_ms", "loss_pct", "jitter_ms", "bandwidth_mbps")

    def __init__(self, samples: Sequence[ConditionSample]) -> None:
        if not samples:
            raise SimulationError("a trace needs at least one sample")
        self._samples: List[ConditionSample] = list(samples)

    def metric(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self._samples])

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-metric mean / median / P95, as computed at session end."""
        summary: Dict[str, Dict[str, float]] = {}
        for name in self.METRICS:
            values = self.metric(name)
            summary[name] = {
                "mean": float(values.mean()),
                "median": float(np.median(values)),
                "p95": float(np.percentile(values, 95)),
            }
        return summary


class TraceGenerator:
    """Generate a session-long condition trace for one participant's path.

    Latency varies around the path baseline with load-dependent inflation
    (standing queues correlate with jitter), loss follows a Gilbert–Elliott
    chain whose burstiness comes from the profile, and bandwidth wanders
    slowly around the bottleneck value.
    """

    def __init__(self, profile: LinkProfile) -> None:
        self._profile = profile
        self._loss = GilbertElliottLoss(
            rate=profile.loss_rate, burstiness=min(profile.burstiness, 0.95)
        )
        self._jitter = JitterProcess(scale_ms=profile.jitter_ms)

    def generate(self, rng: np.random.Generator, duration_s: float) -> ConditionTrace:
        if duration_s <= 0:
            raise SimulationError(f"duration must be positive, got {duration_s}")
        n_samples = max(1, int(round(duration_s / SAMPLE_INTERVAL_S)))
        self._jitter.reset()
        samples: List[ConditionSample] = []
        bandwidth_level = self._profile.bandwidth_mbps
        for i in range(n_samples):
            jitter_ms = self._jitter.sample_interval(rng)
            # Queueing delay co-moves with jitter: both come from queues.
            queueing_ms = 1.5 * jitter_ms * rng.random()
            latency_ms = self._profile.base_latency_ms + queueing_ms + abs(
                rng.normal(0, 0.03 * self._profile.base_latency_ms + 0.5)
            )
            loss_frac = interval_loss_rate(self._loss, rng, SAMPLE_INTERVAL_S)
            # Slow multiplicative random walk for available bandwidth.
            bandwidth_level *= float(np.exp(rng.normal(0, 0.05)))
            bandwidth_level = float(
                np.clip(bandwidth_level,
                        0.3 * self._profile.bandwidth_mbps,
                        1.5 * self._profile.bandwidth_mbps)
            )
            samples.append(
                ConditionSample(
                    t_s=i * SAMPLE_INTERVAL_S,
                    latency_ms=float(latency_ms),
                    loss_pct=float(min(100.0, loss_frac * 100)),
                    jitter_ms=float(jitter_ms),
                    bandwidth_mbps=bandwidth_level,
                )
            )
        return ConditionTrace(samples)
