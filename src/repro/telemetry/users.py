"""Persistent users: identity, home networks, and conditioning that moves.

The default generator draws anonymous participants per call, with
long-term conditioning as a static random attribute.  That suffices for
the cross-sectional §3 analyses, but §6's conditioning confounder is a
*dynamic*: "exposure to network conditions could set expectations."

:class:`UserPopulation` provides the dynamic version: persistent users
who keep the same home network across calls and whose conditioning state
is an EWMA of the quality they have actually experienced.  A user who
lives on a pristine corporate network stays sensitive; one who has spent
months on congested DSL stops reacting to every blip.  The S6 benchmark
uses this to stage the paper's natural experiment.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.netsim.link import LinkProfile
from repro.rng import derive
from repro.telemetry.network_profiles import ProfileSampler
from repro.telemetry.platforms import PLATFORMS, Platform


@dataclass
class User:
    """One persistent user.

    Attributes:
        user_id: stable identifier across calls.
        platform: the device they habitually join from.
        home_profile: their usual access path (per-call traces still vary
            around it through the condition processes).
        conditioning: current expectation state in [0, 1]; 1 = accustomed
            to pristine networks (reacts fully to degradation).
        n_sessions: how many sessions they have been in.
    """

    user_id: str
    platform: Platform
    home_profile: LinkProfile
    conditioning: float
    n_sessions: int = 0
    _quality_sum: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.conditioning <= 1:
            raise ConfigError("conditioning must be in [0, 1]")

    @property
    def mean_experienced_quality(self) -> Optional[float]:
        """Average overall MOS across attended sessions (None if never)."""
        if self.n_sessions == 0:
            return None
        return self._quality_sum / self.n_sessions

    def record_session(self, experienced_mos: float,
                       adaptation: float = 0.1) -> None:
        """Fold one session's experienced quality into the expectation.

        Conditioning relaxes toward the normalised experienced quality:
        repeatedly good calls push it up (high expectations), repeatedly
        bad ones push it down (hardened).
        """
        if not 1 <= experienced_mos <= 5:
            raise ConfigError("experienced_mos must be in [1, 5]")
        if not 0 < adaptation <= 1:
            raise ConfigError("adaptation must be in (0, 1]")
        normalised = (experienced_mos - 1.0) / 4.0
        self.conditioning = float(np.clip(
            (1 - adaptation) * self.conditioning + adaptation * normalised,
            0.0, 1.0,
        ))
        self.n_sessions += 1
        self._quality_sum += experienced_mos


class UserPopulation:
    """A fixed population to draw meeting participants from."""

    def __init__(
        self,
        size: int = 2000,
        seed: int = 0,
        profiles: Optional[ProfileSampler] = None,
    ) -> None:
        if size < 10:
            raise ConfigError("population needs at least 10 users")
        rng = derive(seed, "telemetry", "users")
        sampler = profiles or ProfileSampler()
        keys = list(PLATFORMS)
        weights = np.array([PLATFORMS[k].population_share for k in keys])
        weights = weights / weights.sum()
        self._users: List[User] = []
        for i in range(size):
            platform = PLATFORMS[str(rng.choice(keys, p=weights))]
            self._users.append(User(
                user_id=f"user-{i:05d}",
                platform=platform,
                home_profile=sampler.sample(rng, is_mobile=platform.is_mobile),
                conditioning=float(np.clip(rng.beta(4, 2), 0, 1)),
            ))

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self):
        return iter(self._users)

    def by_id(self, user_id: str) -> User:
        for user in self._users:
            if user.user_id == user_id:
                return user
        raise ConfigError(f"unknown user {user_id!r}")

    def sample(self, rng: np.random.Generator, n: int) -> List[User]:
        """Draw ``n`` distinct users for one meeting."""
        if n > len(self._users):
            raise ConfigError(
                f"meeting of {n} exceeds population of {len(self._users)}"
            )
        idx = rng.choice(len(self._users), size=n, replace=False)
        return [self._users[int(i)] for i in idx]
