"""The posting population: who is on r/Starlink and how they differ.

The §6 "social network bias" discussion motivates modelling authors
explicitly: social media over-represents extremes (delighted early
adopters and burned customers both post more than the satisfied middle),
and the population's composition shifts over time as the service grows
from enthusiasts toward ordinary subscribers.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.rng import derive

COUNTRIES = (
    "US", "US", "US", "US", "US", "US", "US", "US", "CA", "CA",
    "UK", "AU", "DE", "FR", "NZ", "MX", "IT", "ES", "PT", "BR",
    "CL", "IE", "BE", "NL",
)


@dataclass(frozen=True)
class Author:
    """One community member.

    Attributes:
        handle: username.
        joined: first day active on the subreddit.
        is_subscriber: has the hardware (non-subscribers post questions
            and event reactions, not experience reports).
        optimism: personal sentiment offset in [-1, 1].
        extremity: tendency to post only when feelings are strong, [0, 1]
            (the §6 bias knob).
        verbosity: relative posting rate.
        country: where they are (used for the multi-country outage
            confirmation detail).
        waiting_preorder: ordered but not yet delivered — this cohort is
            the one the 24 Nov '21 delay email enrages.
    """

    handle: str
    joined: dt.date
    is_subscriber: bool
    optimism: float
    extremity: float
    verbosity: float
    country: str
    waiting_preorder: bool

    def __post_init__(self) -> None:
        if not -1 <= self.optimism <= 1:
            raise ConfigError("optimism must be in [-1, 1]")
        if not 0 <= self.extremity <= 1:
            raise ConfigError("extremity must be in [0, 1]")
        if self.verbosity <= 0:
            raise ConfigError("verbosity must be positive")


@dataclass(frozen=True)
class SubscriberPool:
    """One day's subscribers and their verbosity-weighted draw odds.

    Building it scans every active author, so a caller drawing many
    subscribers on one day builds it once and samples it repeatedly.
    """

    authors: List[Author]
    p: np.ndarray

    def sample(self, rng: np.random.Generator) -> Author:
        return self.authors[int(rng.choice(len(self.authors), p=self.p))]


class AuthorPool:
    """A population that grows over the corpus span.

    Growth tracks the subscriber curve loosely (the subreddit grew with
    the service), and the subscriber share among authors rises over time
    as hardware actually ships.
    """

    def __init__(self, size: int = 4000, seed: int = 0,
                 span_start: dt.date = dt.date(2021, 1, 1),
                 span_end: dt.date = dt.date(2022, 12, 31)) -> None:
        if size < 10:
            raise ConfigError("author pool needs at least 10 members")
        if span_end < span_start:
            raise ConfigError("span_end precedes span_start")
        rng = derive(seed, "social", "authors")
        span_days = (span_end - span_start).days
        self._authors: List[Author] = []
        for i in range(size):
            # A founding cohort predates the span (the subreddit already
            # existed); the rest skew early but keep arriving.
            if rng.random() < 0.15:
                join_frac = 0.0
            else:
                join_frac = float(rng.beta(1.2, 1.8))
            joined = span_start + dt.timedelta(days=int(join_frac * span_days))
            late = join_frac  # later joiners more likely to have hardware
            is_subscriber = bool(rng.random() < 0.25 + 0.55 * late)
            self._authors.append(
                Author(
                    handle=f"redditor_{i:05d}",
                    joined=joined,
                    is_subscriber=is_subscriber,
                    optimism=float(np.clip(rng.normal(0.1, 0.35), -1, 1)),
                    extremity=float(rng.beta(2, 3)),
                    verbosity=float(np.exp(rng.normal(0, 0.6))),
                    country=str(rng.choice(COUNTRIES)),
                    waiting_preorder=bool(
                        not is_subscriber and rng.random() < 0.5
                    ),
                )
            )

    def __len__(self) -> int:
        return len(self._authors)

    def active_on(self, day: dt.date) -> List[Author]:
        """Members who have joined by the given day."""
        return [a for a in self._authors if a.joined <= day]

    def sample(self, rng: np.random.Generator, day: dt.date, n: int) -> List[Author]:
        """Draw ``n`` posting authors for a day, verbosity-weighted."""
        active = self.active_on(day)
        if not active:
            raise ConfigError(f"no active authors on {day}")
        weights = np.array([a.verbosity for a in active])
        idx = rng.choice(len(active), size=n, p=weights / weights.sum())
        return [active[int(i)] for i in idx]

    def subscribers_on(
        self,
        day: dt.date,
        predicate: Optional[Callable[[Author], bool]] = None,
    ) -> SubscriberPool:
        """The authors who actually have the hardware on ``day``.

        ``predicate`` optionally narrows further (e.g. to countries where
        the service is actually available); it falls back to the plain
        subscriber pool when nobody matches.
        """
        subscribers = [a for a in self.active_on(day) if a.is_subscriber]
        if not subscribers:
            raise ConfigError(f"no active subscribers on {day}")
        if predicate is not None:
            narrowed = [a for a in subscribers if predicate(a)]
            if narrowed:
                subscribers = narrowed
        weights = np.array([a.verbosity for a in subscribers])
        return SubscriberPool(subscribers, weights / weights.sum())

    def sample_subscriber(
        self,
        rng: np.random.Generator,
        day: dt.date,
        predicate: Optional[Callable[[Author], bool]] = None,
    ) -> Author:
        """Draw one author from :meth:`subscribers_on`."""
        return self.subscribers_on(day, predicate).sample(rng)
