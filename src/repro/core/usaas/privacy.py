"""Privacy enforcement: no PII, aggregation floors.

The paper closes with *"Privacy & ethics: We do not use any PII in our
analyses"* and §5 insists insights be *aggregated*.  Two mechanisms:

* :func:`scrub_author` — identifiers are one-way hashed before they ever
  enter a signal series, so joins are possible but re-identification
  from the service's outputs is not (:func:`scrub_all` scrubs a whole
  column, hashing each distinct identifier once);
* :class:`PrivacyGuard` — any aggregate released by the service must
  cover at least ``min_users`` distinct (hashed) users.  A query whose
  whole pool falls short raises :class:`~repro.errors.PrivacyError`;
  inside an answer, a single aggregate that falls short (a level
  insight, a breakdown group, an anomaly day) is withheld instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.signals import SignalSeries
from repro.core.stats import unique_counts
from repro.errors import PrivacyError

_SCRUB_PREFIX = "u_"


def scrub_author(identifier: str) -> str:
    """One-way hash of a user identifier (stable within a deployment)."""
    if not identifier:
        raise PrivacyError("cannot scrub an empty identifier")
    digest = hashlib.sha256(identifier.encode("utf-8")).hexdigest()[:12]
    return f"{_SCRUB_PREFIX}{digest}"


def scrub_all(identifiers: Iterable[str]) -> List[str]:
    """:func:`scrub_author` over a column of identifiers, in order.

    A user recurs across sessions and posts, so each distinct
    identifier is hashed once and reused.
    """
    scrubbed: Dict[str, str] = {}
    out: List[str] = []
    for identifier in identifiers:
        key = scrubbed.get(identifier)
        if key is None:
            key = scrubbed[identifier] = scrub_author(identifier)
        out.append(key)
    return out


def is_scrubbed(identifier: str) -> bool:
    return identifier.startswith(_SCRUB_PREFIX)


@dataclass(frozen=True)
class PrivacyGuard:
    """Aggregation floor enforcement.

    Attributes:
        min_users: smallest distinct-user count an aggregate may cover.
    """

    min_users: int = 10

    def __post_init__(self) -> None:
        if self.min_users < 1:
            raise PrivacyError("min_users must be >= 1")

    def distinct_users(self, series: SignalSeries) -> int:
        return int(_users_per_group(series)[0])

    def covers(self, series: SignalSeries) -> bool:
        """True when the series reaches the floor (an aggregate may be released)."""
        return self.distinct_users(series) >= self.min_users

    def covered_groups(
        self, series: SignalSeries, groups: np.ndarray, n_groups: int
    ) -> np.ndarray:
        """Per group id in ``range(n_groups)``: does that group reach the floor?"""
        return _users_per_group(series, groups, n_groups) >= self.min_users

    def check(self, series: SignalSeries, context: str = "aggregate") -> None:
        """Raise PrivacyError when the series is too narrow to release."""
        users = self.distinct_users(series)
        if users < self.min_users:
            raise PrivacyError(
                f"{context}: only {users} distinct users "
                f"(floor is {self.min_users})"
            )

    def assert_scrubbed(self, series: SignalSeries) -> None:
        """Raise when any signal carries an unscrubbed user identifier."""
        codes, vocab = series._attr("user")
        words = vocab.words
        raw = [
            code for code in vocab.present(codes).tolist()
            if words[code] and not is_scrubbed(words[code])
        ]
        if raw:
            first = int(np.argmax(np.isin(codes, raw)))
            (signal,) = series._take(np.array([first]))  # builds this row only
            raise PrivacyError(
                f"signal at {signal.timestamp} carries raw identifier"
            )


def _users_per_group(
    series: SignalSeries,
    groups: Optional[np.ndarray] = None,
    n_groups: int = 1,
) -> np.ndarray:
    """Distinct non-empty ``user`` attrs per group (every row in group 0 by default)."""
    codes, vocab = series._attr("user")
    named = (codes >= 0) & (codes != vocab.code(""))
    if groups is None:
        groups = np.zeros(len(codes), dtype=np.int64)
    width = max(len(vocab.words), 1)
    pairs, _ = unique_counts(groups[named] * width + codes[named])
    return np.bincount(pairs // width, minlength=n_groups)
