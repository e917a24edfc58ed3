"""The retry policy behind :meth:`~repro.resilience.executor.SourceExecutor.fetch`.

The backoff schedule is a pure function of ``(seed, key, attempt)``:
jitter is drawn from a :func:`repro.rng.derive` stream, never from
global randomness, so the same policy produces the same delays on every
run and every platform — the property the chaos suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import rng as rng_mod
from repro.errors import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Attributes:
        max_attempts: total attempts (1 = no retries).
        base_delay_s: delay before the first retry.
        multiplier: exponential growth factor between retries.
        max_delay_s: cap on any single delay.
        jitter: fractional jitter; each delay is scaled by a factor drawn
            uniformly from ``[1 - jitter, 1 + jitter]`` on a seeded
            stream keyed by the call site.
        attempt_timeout_s: per-attempt time budget measured on the
            injected clock; an attempt that takes longer counts as a
            failure even if it eventually returned.
        seed: root seed for the jitter stream.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    attempt_timeout_s: Optional[float] = None
    seed: int = rng_mod.DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ConfigError("attempt_timeout_s must be positive")

    def schedule(self, key: str) -> Tuple[float, ...]:
        """The full backoff schedule (``max_attempts - 1`` delays).

        ``key`` identifies the call site (e.g. the source name); distinct
        keys get independent jitter streams from the same seed.
        """
        stream = rng_mod.derive(self.seed, "resilience.retry", key)
        delays: List[float] = []
        for attempt in range(self.max_attempts - 1):
            raw = min(
                self.base_delay_s * (self.multiplier ** attempt),
                self.max_delay_s,
            )
            factor = 1.0 + self.jitter * float(2.0 * stream.random() - 1.0)
            delays.append(min(raw * factor, self.max_delay_s))
        return tuple(delays)
