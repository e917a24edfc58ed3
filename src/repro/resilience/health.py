"""Per-source health records surfaced on every USaaS report.

A :class:`SourceHealth` is the operator-facing truth about one feed:
how many attempts were made, how many failed, what the last error was,
what the breaker thinks, and whether the last answer was served stale.
Records carry no wall-clock timestamps — elapsed time comes from the
injected clock — so the same seeded run produces byte-identical records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.io.tables import format_left_table


@dataclass
class SourceHealth:
    """Mutable per-source ledger entry.

    Attributes:
        name: registry name of the source.
        attempts: individual call attempts (retries count separately).
        successes: attempts that returned within budget.
        failures: attempts that raised or blew the timeout budget.
        shed: calls refused up-front by an open breaker.
        consecutive_failures: failure streak ending at the last attempt.
        last_error: ``"ExceptionType: message"`` of the latest failure.
        breaker_state: the breaker state after the latest interaction.
        stale: the last fetch was served from the stale cache.
        last_elapsed_s: duration of the latest attempt on the injected
            clock (0.0 when never called or shed).
        last_cycle_elapsed_s: duration of the latest *whole* fetch cycle
            — every attempt plus the backoff between them — on the
            injected clock.  When the retry loop exhausts its budget
            this is what the query's deadline actually paid, which is
            why health tables and deadline accounting agree on it.
    """

    name: str
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    shed: int = 0
    consecutive_failures: int = 0
    last_error: Optional[str] = None
    breaker_state: str = "closed"
    stale: bool = False
    last_elapsed_s: float = 0.0
    last_cycle_elapsed_s: float = 0.0

    @property
    def status(self) -> str:
        """``ok`` | ``stale`` | ``failed`` — the one-word table cell."""
        if self.stale:
            return "stale"
        if self.consecutive_failures > 0 or self.breaker_state != "closed":
            return "failed"
        return "ok"

    def record_success(self, elapsed_s: float = 0.0) -> None:
        self.attempts += 1
        self.successes += 1
        self.consecutive_failures = 0
        self.last_elapsed_s = float(elapsed_s)
        self.stale = False

    def record_failure(self, error: BaseException, elapsed_s: float = 0.0) -> None:
        self.attempts += 1
        self.failures += 1
        self.consecutive_failures += 1
        self.last_error = f"{type(error).__name__}: {error}"
        self.last_elapsed_s = float(elapsed_s)

    def record_shed(self, error: BaseException) -> None:
        self.shed += 1
        self.last_error = f"{type(error).__name__}: {error}"

    def as_dict(self) -> Dict[str, object]:
        """Stable, JSON-ready form (used for byte-identity assertions)."""
        return {
            "name": self.name,
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "shed": self.shed,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
            "breaker_state": self.breaker_state,
            "stale": self.stale,
            "last_elapsed_s": round(self.last_elapsed_s, 6),
            "last_cycle_elapsed_s": round(self.last_cycle_elapsed_s, 6),
            "status": self.status,
        }


class HealthLedger:
    """Name-keyed collection of :class:`SourceHealth` records."""

    def __init__(self) -> None:
        self._records: Dict[str, SourceHealth] = {}

    def get(self, name: str) -> SourceHealth:
        if name not in self._records:
            self._records[name] = SourceHealth(name=name)
        return self._records[name]

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[SourceHealth]:
        for name in sorted(self._records):
            yield self._records[name]

    def __len__(self) -> int:
        return len(self._records)

    def snapshot(self) -> Tuple[SourceHealth, ...]:
        """Point-in-time copies, sorted by name."""
        return tuple(
            SourceHealth(**vars(record)) for record in self
        )


def health_table(records: "Iterator[SourceHealth]") -> str:
    """Render health records as a fixed-width text table."""
    return format_left_table(
        ("source", "status", "breaker", "attempts", "fail", "shed",
         "last error"),
        (
            (r.name, r.status, r.breaker_state, str(r.attempts),
             str(r.failures), str(r.shed), r.last_error or "-")
            for r in sorted(records, key=lambda r: r.name)
        ),
    )
