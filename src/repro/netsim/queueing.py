"""Bottleneck queueing: where latency, jitter and loss actually come from.

The link profiles in :mod:`repro.netsim.link` anchor each path's typical
conditions; this module grounds those anchors in first principles.  A
congested access link is a finite-buffer FIFO queue in front of a
fixed-rate bottleneck, and its delay/jitter/loss all follow from the
offered load:

* :class:`BottleneckQueue` gives the closed-form M/M/1/K quantities
  (mean wait, delay variation, blocking probability);
* :func:`simulate_queue` is a small discrete-event simulation of the same
  queue, the reference the tests check the formulas against;
* :func:`profile_for_load` converts (propagation delay, offered load)
  into a :class:`~repro.netsim.link.LinkProfile`, so a whole family of
  tier anchors can be derived from one physical story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.netsim.link import LinkProfile


@dataclass(frozen=True)
class BottleneckQueue:
    """A finite-buffer FIFO in front of a fixed-rate bottleneck (M/M/1/K).

    Attributes:
        capacity_mbps: bottleneck service rate.
        buffer_packets: queue capacity K (including the one in service).
        packet_bytes: mean packet size.
    """

    capacity_mbps: float = 10.0
    buffer_packets: int = 50
    packet_bytes: int = 1200

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ConfigError("capacity_mbps must be positive")
        if self.buffer_packets < 1:
            raise ConfigError("buffer_packets must be >= 1")
        if self.packet_bytes <= 0:
            raise ConfigError("packet_bytes must be positive")

    @property
    def service_time_ms(self) -> float:
        """Mean transmission time of one packet."""
        return self.packet_bytes * 8 / (self.capacity_mbps * 1e6) * 1e3

    def utilisation(self, offered_mbps: float) -> float:
        if offered_mbps < 0:
            raise ConfigError("offered load must be >= 0")
        return offered_mbps / self.capacity_mbps

    def _state_probabilities(self, rho: float) -> np.ndarray:
        k = self.buffer_packets
        if abs(rho - 1.0) < 1e-12:
            return np.full(k + 1, 1.0 / (k + 1))
        powers = rho ** np.arange(k + 1)
        return powers * (1 - rho) / (1 - rho ** (k + 1))

    def blocking_probability(self, offered_mbps: float) -> float:
        """Probability an arriving packet finds the buffer full (= loss)."""
        rho = self.utilisation(offered_mbps)
        if rho == 0:
            return 0.0
        return float(self._state_probabilities(rho)[-1])

    def mean_wait_ms(self, offered_mbps: float) -> float:
        """Mean queueing + service delay of *accepted* packets."""
        rho = self.utilisation(offered_mbps)
        probs = self._state_probabilities(rho)
        mean_queue = float(np.arange(len(probs)) @ probs)
        accepted_rate = rho * (1 - probs[-1])  # in service-time units
        if accepted_rate <= 0:
            return self.service_time_ms
        # Little's law: L = lambda_eff * W.
        return mean_queue / accepted_rate * self.service_time_ms

    def delay_std_ms(self, offered_mbps: float) -> float:
        """Standard deviation of the sojourn time (jitter proxy).

        Computed from the queue-length distribution seen by accepted
        arrivals (PASTA, renormalised over non-full states): a packet
        arriving at queue length n waits n+1 service times, each Exp(mu).
        """
        rho = self.utilisation(offered_mbps)
        probs = self._state_probabilities(rho)
        accept = probs[:-1]
        total = accept.sum()
        if total <= 0:
            return 0.0
        accept = accept / total
        n = np.arange(len(accept))
        stages = n + 1  # Erlang(n+1) sojourn
        mean = float(stages @ accept)
        # Var = E[Var|n] + Var(E|n) with Erlang stages of unit-mean phases.
        var = float(stages @ accept) + float((stages**2) @ accept) - mean**2
        return math.sqrt(max(var, 0.0)) * self.service_time_ms


def simulate_queue(
    rng: np.random.Generator,
    queue: BottleneckQueue,
    offered_mbps: float,
    n_packets: int = 20000,
) -> Tuple[np.ndarray, float]:
    """Discrete-event simulation of the M/M/1/K queue.

    Returns (sojourn times in ms of accepted packets, loss fraction).
    """
    if n_packets < 1:
        raise SimulationError("n_packets must be >= 1")
    rho = queue.utilisation(offered_mbps)
    if rho <= 0:
        raise SimulationError("offered load must be positive to simulate")
    service_ms = queue.service_time_ms
    interarrival_ms = service_ms / rho

    arrivals = np.cumsum(rng.exponential(interarrival_ms, size=n_packets))
    services = rng.exponential(service_ms, size=n_packets)

    # Track departure times of packets currently in the system.
    in_system: List[float] = []
    sojourns: List[float] = []
    dropped = 0
    free_at = 0.0  # when the server becomes free
    for arrival, service in zip(arrivals, services):
        in_system = [d for d in in_system if d > arrival]
        if len(in_system) >= queue.buffer_packets:
            dropped += 1
            continue
        # FIFO: service starts when the previous departure completes
        # (free_at <= arrival whenever the system is empty, because the
        # last departure was already filtered out above).
        start = max(arrival, in_system[-1] if in_system else free_at)
        departure = start + service
        in_system.append(departure)
        free_at = departure
        sojourns.append(departure - arrival)
    return np.asarray(sojourns), dropped / n_packets


def profile_for_load(
    base_latency_ms: float,
    offered_mbps: float,
    queue: BottleneckQueue = BottleneckQueue(),
    available_headroom_fraction: float = 1.0,
) -> LinkProfile:
    """Derive a LinkProfile from a physical bottleneck story.

    Args:
        base_latency_ms: propagation delay of the path.
        offered_mbps: cross-traffic load on the bottleneck.
        queue: the bottleneck's queue.
        available_headroom_fraction: share of the residual capacity the
            measured flow can actually grab.
    """
    if base_latency_ms < 0:
        raise ConfigError("base_latency_ms must be >= 0")
    if not 0 < available_headroom_fraction <= 1:
        raise ConfigError("available_headroom_fraction must be in (0, 1]")
    rho = queue.utilisation(offered_mbps)
    if rho >= 1.2:
        raise ConfigError("offered load beyond 120% of capacity is not a "
                          "steady state worth profiling")
    residual = max(0.2, (queue.capacity_mbps - offered_mbps)
                   * available_headroom_fraction)
    loss = queue.blocking_probability(offered_mbps)
    return LinkProfile(
        base_latency_ms=base_latency_ms + queue.mean_wait_ms(offered_mbps),
        loss_rate=min(0.2, loss),
        jitter_ms=queue.delay_std_ms(offered_mbps),
        bandwidth_mbps=min(residual, 4.5),
        burstiness=min(1.0, 0.2 + 0.6 * rho),
    )
