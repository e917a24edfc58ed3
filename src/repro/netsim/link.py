"""Access-link profiles: the static part of a user's network conditions.

A :class:`LinkProfile` captures the *typical* conditions of one user's
path for one call — base propagation latency, mean loss rate, jitter
scale and available bandwidth.  The session trace
(:mod:`repro.netsim.trace`, with :mod:`repro.netsim.loss`) adds
within-session variation around these anchors.

``NETWORK_TIERS`` spans the condition space of Fig. 1: the paper's call
population mixes everything from pristine enterprise fibre to congested
mobile and satellite links, which is exactly what lets it bin sessions
along each metric axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class LinkProfile:
    """Per-session anchor conditions for one participant's access path.

    Attributes:
        base_latency_ms: one-way propagation + queueing baseline.
        loss_rate: mean fraction of packets lost before mitigation, [0, 1].
        jitter_ms: typical delay variation scale.
        bandwidth_mbps: available downlink/uplink bottleneck bandwidth.
        burstiness: 0 → independent losses, 1 → highly bursty losses.
    """

    base_latency_ms: float
    loss_rate: float
    jitter_ms: float
    bandwidth_mbps: float
    burstiness: float = 0.3

    def __post_init__(self) -> None:
        if self.base_latency_ms < 0:
            raise ConfigError(f"latency must be >= 0, got {self.base_latency_ms}")
        if not 0 <= self.loss_rate <= 1:
            raise ConfigError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if self.jitter_ms < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter_ms}")
        if self.bandwidth_mbps <= 0:
            raise ConfigError(f"bandwidth must be > 0, got {self.bandwidth_mbps}")
        if not 0 <= self.burstiness <= 1:
            raise ConfigError(f"burstiness must be in [0, 1], got {self.burstiness}")


# Condition tiers spanning the axes of Fig. 1.  Weights approximate a
# realistic enterprise call population: mostly good paths with a long tail
# of degraded ones.  Each tier gives (profile, weight).
NETWORK_TIERS: Dict[str, tuple] = {
    "enterprise_fiber": (
        LinkProfile(base_latency_ms=12, loss_rate=0.0004, jitter_ms=1.0,
                    bandwidth_mbps=4.0, burstiness=0.1),
        0.30,
    ),
    "good_broadband": (
        LinkProfile(base_latency_ms=30, loss_rate=0.001, jitter_ms=2.0,
                    bandwidth_mbps=3.5, burstiness=0.2),
        0.25,
    ),
    "average_broadband": (
        LinkProfile(base_latency_ms=60, loss_rate=0.003, jitter_ms=4.0,
                    bandwidth_mbps=2.5, burstiness=0.3),
        0.18,
    ),
    "congested_broadband": (
        LinkProfile(base_latency_ms=120, loss_rate=0.008, jitter_ms=8.0,
                    bandwidth_mbps=1.5, burstiness=0.5),
        0.10,
    ),
    "mobile_lte": (
        LinkProfile(base_latency_ms=80, loss_rate=0.006, jitter_ms=9.0,
                    bandwidth_mbps=2.0, burstiness=0.5),
        0.08,
    ),
    "weak_mobile": (
        LinkProfile(base_latency_ms=180, loss_rate=0.018, jitter_ms=14.0,
                    bandwidth_mbps=0.9, burstiness=0.7),
        0.05,
    ),
    "satellite_leo": (
        LinkProfile(base_latency_ms=45, loss_rate=0.010, jitter_ms=10.0,
                    bandwidth_mbps=2.8, burstiness=0.6),
        0.02,
    ),
    "terrible": (
        LinkProfile(base_latency_ms=260, loss_rate=0.035, jitter_ms=18.0,
                    bandwidth_mbps=0.6, burstiness=0.8),
        0.02,
    ),
}


def sample_link_profile(
    rng: np.random.Generator,
    tier: Optional[str] = None,
) -> LinkProfile:
    """Draw a per-session link profile.

    Without ``tier``, a tier is drawn by population weight; the anchor
    values are then perturbed log-normally so that session conditions form
    a continuum along each axis rather than eight discrete clusters.
    """
    if tier is None:
        names = list(NETWORK_TIERS)
        weights = np.array([NETWORK_TIERS[n][1] for n in names])
        tier = str(rng.choice(names, p=weights / weights.sum()))
    if tier not in NETWORK_TIERS:
        raise ConfigError(f"unknown network tier {tier!r}")
    anchor: LinkProfile = NETWORK_TIERS[tier][0]

    def jig(scale: float = 0.35) -> float:
        return float(np.exp(rng.normal(0.0, scale)))

    return LinkProfile(
        base_latency_ms=anchor.base_latency_ms * jig(),
        loss_rate=min(0.20, anchor.loss_rate * jig(0.6)),
        jitter_ms=anchor.jitter_ms * jig(),
        bandwidth_mbps=max(0.2, anchor.bandwidth_mbps * jig(0.25)),
        burstiness=float(np.clip(anchor.burstiness + rng.normal(0, 0.1), 0, 1)),
    )
