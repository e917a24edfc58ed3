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
from typing import Dict, Iterable, List, Tuple

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
        codes, named, _ = _users(series)
        return int(np.count_nonzero(np.bincount(codes[named], minlength=1)))

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


def has_raw_identifiers(series: SignalSeries) -> bool:
    """Whether the ``user`` vocabulary behind ``series`` holds a raw identifier.

    The vocabulary belongs to the series' store, which only grows:
    while this is False, no view of the store at its present length
    can fail :meth:`PrivacyGuard.assert_scrubbed`.
    """
    _, vocab = series._attr("user")
    return any(word and not is_scrubbed(word) for word in vocab.words)


def _users(series: SignalSeries) -> Tuple[np.ndarray, np.ndarray, int]:
    """Per row its ``user`` code and whether it names a user; the vocabulary's size."""
    codes, vocab = series._attr("user")
    named = (codes >= 0) & (codes != vocab.code(""))
    return codes, named, max(len(vocab.words), 1)


def _users_per_group(
    series: SignalSeries, groups: np.ndarray, n_groups: int
) -> np.ndarray:
    """Distinct non-empty ``user`` attrs per group id in ``range(n_groups)``."""
    codes, named, width = _users(series)
    pairs, _ = unique_counts(groups[named] * width + codes[named])
    return np.bincount(pairs // width, minlength=n_groups)
