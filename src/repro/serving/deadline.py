"""Per-query time budgets on the injectable clock.

A :class:`Deadline` is a monotonic budget created when a query is
admitted: ``remaining()`` shrinks as the injected
:class:`~repro.resilience.clock.Clock` advances, and the ingestion
executor clamps every per-attempt timeout to it, so retries and backoff
are cut short instead of overrunning the budget.  Because time comes
from the clock, a :class:`~repro.resilience.clock.ManualClock` makes
every deadline interaction exactly reproducible under test.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.resilience.clock import Clock, MonotonicClock


class Deadline:
    """A monotonic time budget for one query.

    >>> from repro.resilience.clock import ManualClock
    >>> clock = ManualClock()
    >>> deadline = Deadline.start(clock, 2.0)
    >>> clock.advance(1.5); deadline.remaining()
    0.5
    >>> deadline.clamp(1.0)
    0.5
    """

    __slots__ = ("_clock", "started_at", "budget_s")

    def __init__(self, clock: Clock, started_at: float,
                 budget_s: float) -> None:
        if budget_s <= 0:
            raise ConfigError("deadline budget must be positive")
        self._clock = clock
        self.started_at = float(started_at)
        self.budget_s = float(budget_s)

    @classmethod
    def start(cls, clock: Optional[Clock] = None,
              budget_s: float = 30.0) -> "Deadline":
        """A deadline beginning *now* on ``clock``."""
        clock = clock or MonotonicClock()
        return cls(clock, clock.now(), budget_s)

    @property
    def expires_at(self) -> float:
        return self.started_at + self.budget_s

    def remaining(self) -> float:
        """Budget left; negative once the deadline has passed."""
        return self.expires_at - self._clock.now()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def overrun(self) -> float:
        """How far past the budget we are (0.0 while still inside it)."""
        return max(0.0, -self.remaining())

    def clamp(self, timeout_s: Optional[float]) -> Optional[float]:
        """``timeout_s`` cut down to the remaining budget.

        ``None`` (no per-attempt timeout) becomes the remaining budget
        itself, so an attempt started near expiry still gets a finite
        allowance; an already-expired deadline clamps to 0.0, which the
        executor treats as "don't even start".  The result is never
        negative: a nonsensical negative ``timeout_s`` also clamps to
        0.0 instead of leaking a negative allowance downstream.
        """
        remaining = max(0.0, self.remaining())
        if timeout_s is None:
            return remaining
        return max(0.0, min(float(timeout_s), remaining))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Deadline(budget={self.budget_s:.3f}s, "
                f"remaining={self.remaining():.3f}s)")
