"""Speed-test sharing behaviour.

§4.2 identifies ~1750 Starlink speed-test screenshots shared on
r/Starlink over Jan '21 – Dec '22, across providers (Ookla, Fast,
Starlink's own app, others).  This module samples the *measurement* a
user would share: their personal draw around the month's true median,
plus realistic uplink and latency values.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.social.schema import SpeedTestShare

# Provider market share among shared screenshots.
_PROVIDER_WEIGHTS = (
    ("ookla", 0.50),
    ("fast", 0.18),
    ("starlink_app", 0.25),
    ("other", 0.07),
)

# Person-to-person spread of measured speed around the network median
# (cell load, obstructions, time of day).
_SPREAD_SIGMA = 0.32


def sample_provider(rng: np.random.Generator) -> str:
    names = [n for n, _ in _PROVIDER_WEIGHTS]
    weights = np.array([w for _, w in _PROVIDER_WEIGHTS])
    return str(rng.choice(names, p=weights / weights.sum()))


def sample_speed_test(
    rng: np.random.Generator,
    median_download_mbps: float,
) -> SpeedTestShare:
    """Draw one user's speed-test result given the network-wide median."""
    if median_download_mbps <= 0:
        raise ConfigError("median_download_mbps must be positive")
    download = float(
        median_download_mbps * np.exp(rng.normal(0.0, _SPREAD_SIGMA))
    )
    download = max(1.0, min(350.0, download))
    upload = max(0.5, download * float(rng.uniform(0.08, 0.2)))
    latency = float(np.clip(rng.lognormal(np.log(38), 0.3), 18, 150))
    return SpeedTestShare(
        provider=sample_provider(rng),
        download_mbps=round(download, 1),
        upload_mbps=round(upload, 1),
        latency_ms=round(latency),
    )


def share_sentiment(
    measured_mbps: float,
    network_median_mbps: float,
    monthly_satisfaction: float,
    gain: float = 3.0,
    pivot: float = 0.52,
) -> float:
    """Target sentiment of a speed-share post.

    Combines the community's conditioned satisfaction (the Fig. 7 green
    line driver) with the personal result: someone measuring far above
    the median brags, someone far below vents.  The ``pivot`` sits just
    above neutral satisfaction — people need clear positive surprise to
    post praise, while mild disappointment already vents (social-media
    negativity bias, §6).
    """
    if measured_mbps <= 0 or network_median_mbps <= 0:
        raise ConfigError("speeds must be positive")
    if not 0 <= monthly_satisfaction <= 1:
        raise ConfigError("monthly_satisfaction must be in [0, 1]")
    community = gain * (monthly_satisfaction - pivot)
    personal = 0.55 * float(np.log(measured_mbps / network_median_mbps))
    return float(np.clip(community + personal, -1.0, 1.0))
