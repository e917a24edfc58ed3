"""Outage process: headline incidents plus frequent transient ones.

§4.1's Fig. 6 finding: a few large outages spark huge Reddit discussion
(7 Jan '22, 30 Aug '22 — both covered by the press), the 22 Apr '22 outage
was confirmed by Redditors in 14 countries *without any news coverage*,
and there is a steady background of small transient outages that nobody
but the affected users ever records — driven, the paper speculates, by
satellite/earth geometry, weather, GEO-arc avoidance and deployment
planning issues.

The process below generates exactly that population: three pinned
headline events (with historically accurate news-coverage flags) and a
Poisson stream of small transient outages.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigError
from repro.rng import derive

TRANSIENT_CAUSES = (
    "satellite handoff gap",
    "weather cell",
    "GEO-arc avoidance",
    "ground station maintenance",
    "software rollout",
    "cell oversubscription",
)


@dataclass(frozen=True)
class Outage:
    """One service interruption.

    Attributes:
        date: day the outage occurred.
        duration_h: hours of degraded/absent service.
        severity: fraction of the user base affected, (0, 1].
        countries_affected: breadth of the footprint hit.
        in_news: whether the press covered it (drives the news-index
            substrate; the 22 Apr '22 event is deliberately False).
        cause: free-text cause tag.
    """

    date: dt.date
    duration_h: float
    severity: float
    countries_affected: int
    in_news: bool
    cause: str

    def __post_init__(self) -> None:
        if self.duration_h <= 0:
            raise ConfigError("duration_h must be positive")
        if not 0 < self.severity <= 1:
            raise ConfigError(f"severity must be in (0, 1], got {self.severity}")
        if self.countries_affected < 1:
            raise ConfigError("countries_affected must be >= 1")

    @property
    def is_headline(self) -> bool:
        return self.severity >= 0.3


# The three real incidents the paper pins Fig. 6 / Fig. 5 to.
HEADLINE_OUTAGES: List[Outage] = [
    Outage(
        date=dt.date(2022, 1, 7), duration_h=5.0, severity=0.8,
        countries_affected=20, in_news=True, cause="global software fault",
    ),
    Outage(
        date=dt.date(2022, 4, 22), duration_h=2.5, severity=0.6,
        countries_affected=14, in_news=False, cause="unreported global outage",
    ),
    Outage(
        date=dt.date(2022, 8, 30), duration_h=5.0, severity=0.85,
        countries_affected=25, in_news=True, cause="worldwide interruption",
    ),
]


@dataclass(frozen=True)
class OutageProcess:
    """Headline events plus Poisson transient outages over a date span.

    Attributes:
        span_start / span_end: simulated period.
        transient_rate_per_week: mean number of small outages per week.
        seed: determinism root.
    """

    span_start: dt.date = dt.date(2021, 1, 1)
    span_end: dt.date = dt.date(2022, 12, 31)
    transient_rate_per_week: float = 1.6
    seed: int = 0
    headline: List[Outage] = field(default_factory=lambda: list(HEADLINE_OUTAGES))

    def __post_init__(self) -> None:
        if self.span_end < self.span_start:
            raise ConfigError("span_end precedes span_start")
        if self.transient_rate_per_week < 0:
            raise ConfigError("transient_rate_per_week must be >= 0")

    def generate(self) -> List[Outage]:
        """All outages in the span, sorted by date."""
        rng = derive(self.seed, "starlink", "outages")
        outages = [o for o in self.headline
                   if self.span_start <= o.date <= self.span_end]
        n_days = (self.span_end - self.span_start).days + 1
        daily_rate = self.transient_rate_per_week / 7.0
        for day_offset in range(n_days):
            day = self.span_start + dt.timedelta(days=day_offset)
            for _ in range(rng.poisson(daily_rate)):
                outages.append(
                    Outage(
                        date=day,
                        duration_h=float(rng.uniform(0.2, 2.5)),
                        severity=float(rng.uniform(0.005, 0.08)),
                        countries_affected=int(rng.integers(1, 4)),
                        in_news=False,
                        cause=str(rng.choice(TRANSIENT_CAUSES)),
                    )
                )
        return sorted(outages, key=lambda o: o.date)
