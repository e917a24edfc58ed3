"""Starlink subscriber growth, Jan 2021 – Dec 2022.

Milestones are the publicly reported figures the paper annotates Fig. 7
with; between milestones the model interpolates geometrically (subscriber
growth at this stage was multiplicative, not additive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.timeline import Month, iter_months
from repro.errors import ConfigError

# (year, month) -> publicly reported users. Sources as cited in the paper:
# FCC filing (10K, Feb'21), Musk tweet (69,420 active users, Jun'21),
# Sheetz/CNBC (90K, Aug'21; 145K, Jan'22), Musk tweet (250K, Feb'22),
# Sheetz (400K, May'22), advanced-television (700K, Sep'22),
# SpaceX tweet (1M+, Dec'22).
SUBSCRIBER_MILESTONES: Dict[Month, int] = {
    (2021, 1): 6_000,
    (2021, 2): 10_000,
    (2021, 6): 69_420,
    (2021, 8): 90_000,
    (2022, 1): 145_000,
    (2022, 2): 250_000,
    (2022, 5): 400_000,
    (2022, 9): 700_000,
    (2022, 12): 1_050_000,
}


@dataclass(frozen=True)
class SubscriberModel:
    """Monthly subscriber counts interpolated between reported milestones."""

    milestones: Dict[Month, int]

    def __post_init__(self) -> None:
        if len(self.milestones) < 2:
            raise ConfigError("need at least two subscriber milestones")
        for month, count in self.milestones.items():
            if count <= 0:
                raise ConfigError(f"non-positive subscriber count for {month}")

    @classmethod
    def reported(cls) -> "SubscriberModel":
        return cls(milestones=dict(SUBSCRIBER_MILESTONES))

    def monthly(self) -> Dict[Month, int]:
        """Subscribers for every month in the milestone span (geometric)."""
        months = list(iter_months(min(self.milestones), max(self.milestones)))
        anchors = sorted(self.milestones)
        out: Dict[Month, int] = {}
        for month in months:
            if month in self.milestones:
                out[month] = self.milestones[month]
                continue
            prev = max(a for a in anchors if a < month)
            nxt = min(a for a in anchors if a > month)
            span = _months_between(prev, nxt)
            step = _months_between(prev, month)
            ratio = self.milestones[nxt] / self.milestones[prev]
            out[month] = int(round(self.milestones[prev] * ratio ** (step / span)))
        return out

    def at(self, month: Month) -> int:
        monthly = self.monthly()
        if month not in monthly:
            raise ConfigError(f"{month} outside milestone span")
        return monthly[month]

    def growth(self, start: Month, end: Month) -> int:
        """Net new subscribers over the closed range (end minus start)."""
        return self.at(end) - self.at(start)


def _months_between(a: Month, b: Month) -> int:
    return (b[0] - a[0]) * 12 + (b[1] - a[1])
