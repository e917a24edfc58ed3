"""The glue between policy, breaker, health and the source registry.

A :class:`SourceExecutor` owns one :class:`CircuitBreaker` and one
:class:`SourceHealth` record per source and runs every fetch through the
full guard stack:

1. breaker admission (open circuits shed the call instantly),
2. retry loop with deterministic backoff and per-attempt timeout budget,
3. on success within budget: the result is committed to the registry
   cache (becoming the stale-fallback value for later outages),
4. on exhaustion: the last known-good series is served *stale* when the
   configuration allows it, else the source is reported failed.

The executor never raises for a failing source — that isolation is the
point.  Callers inspect :class:`FetchOutcome` and the health ledger and
decide (via ``min_sources`` / ``strict``) whether the query as a whole
is still answerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    ReproError,
    SourceUnavailableError,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import Clock, MonotonicClock
from repro.resilience.health import HealthLedger, SourceHealth
from repro.resilience.policy import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.signals import SignalSeries
    from repro.core.usaas.registry import SignalSourceRegistry
    from repro.serving.deadline import Deadline

#: Exception classes treated as source failures (retried / recorded).
#: Anything else is a programming error and propagates immediately.
RETRYABLE = (ReproError, OSError, ValueError, KeyError)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for the guarded ingestion path.

    Attributes:
        retry: per-source retry/backoff/timeout policy.
        breaker_window / breaker_failure_rate / breaker_min_calls /
            breaker_recovery_s / breaker_half_open_max_calls: breaker
            construction parameters (one breaker per source).
        min_sources: fewest healthy-or-stale sources for a query to be
            answerable; below this ``answer()`` raises
            :class:`~repro.errors.DegradedServiceError`.
        strict: when True, *any* failed source hard-fails the query.
        allow_stale: serve the last known-good series when a source is
            down (marks the source ``stale`` in its health record).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_window: int = 10
    breaker_failure_rate: float = 0.5
    breaker_min_calls: int = 4
    breaker_recovery_s: float = 30.0
    breaker_half_open_max_calls: int = 1
    min_sources: int = 1
    strict: bool = False
    allow_stale: bool = True

    def __post_init__(self) -> None:
        if self.min_sources < 0:
            raise ConfigError("min_sources must be >= 0")


@dataclass(frozen=True)
class FetchOutcome:
    """What one guarded fetch produced.

    ``series`` is None only when the source failed and no stale value
    existed; ``stale`` marks a fallback serve from the last good fetch.
    """

    name: str
    series: Optional["SignalSeries"]
    ok: bool
    stale: bool
    error: Optional[str] = None

    @property
    def usable(self) -> bool:
        return self.series is not None


class SourceExecutor:
    """Per-source guard stack shared across queries.

    Breakers and health accumulate across calls, so a source that fails
    repeatedly over several queries trips its breaker and subsequent
    queries shed the call instead of re-paying the retry budget.
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.clock = clock or MonotonicClock()
        self.ledger = HealthLedger()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._delays: Dict[str, Tuple[float, ...]] = {}

    def breaker(self, name: str) -> CircuitBreaker:
        if name not in self._breakers:
            cfg = self.config
            self._breakers[name] = CircuitBreaker(
                window=cfg.breaker_window,
                failure_rate_threshold=cfg.breaker_failure_rate,
                min_calls=cfg.breaker_min_calls,
                recovery_s=cfg.breaker_recovery_s,
                half_open_max_calls=cfg.breaker_half_open_max_calls,
                clock=self.clock,
                name=name,
            )
        return self._breakers[name]

    # -- the guarded fetch ------------------------------------------------

    def fetch(
        self,
        registry: "SignalSourceRegistry",
        name: str,
        deadline: Optional["Deadline"] = None,
    ) -> FetchOutcome:
        """Fetch one source through breaker + retry + stale fallback.

        ``deadline`` is the query's remaining time budget (see
        :class:`repro.serving.Deadline`): each attempt's timeout is
        clamped to the remaining budget, backoff sleeps that would burn
        the rest of it are skipped, and no new attempt starts once it
        has expired — so a query can overrun its deadline by at most
        one attempt's duration, never by the whole retry schedule.
        """
        health = self.ledger.get(name)
        breaker = self.breaker(name)
        cycle_start = self.clock.now()

        try:
            breaker.acquire()
        except CircuitOpenError as exc:
            health.record_shed(exc)
            health.breaker_state = breaker.state.value
            health.last_cycle_elapsed_s = self.clock.now() - cycle_start
            return self._fallback(registry, name, health, exc)

        policy = self.config.retry
        last_error: BaseException = SourceUnavailableError(
            f"{name}: no attempt made"
        )
        for attempt in range(policy.max_attempts):
            if deadline is not None and deadline.expired():
                last_error = SourceUnavailableError(
                    f"{name}: deadline exhausted before attempt "
                    f"{attempt + 1} ({deadline.overrun():.3f}s over budget)"
                )
                break
            start = self.clock.now()
            # Remaining-budget-aware clamp: the attempt may use at most
            # its own timeout AND what is left of the query's deadline.
            budget = policy.attempt_timeout_s
            if deadline is not None:
                budget = deadline.clamp(budget)
            try:
                series = registry.load(name)
            except RETRYABLE as exc:
                elapsed = self.clock.now() - start
                health.record_failure(exc, elapsed)
                breaker.record_failure()
                last_error = exc
            else:
                elapsed = self.clock.now() - start
                if budget is not None and elapsed > budget:
                    timeout = SourceUnavailableError(
                        f"{name}: attempt {attempt + 1} took {elapsed:.3f}s "
                        f"(budget {budget:.3f}s)"
                    )
                    health.record_failure(timeout, elapsed)
                    breaker.record_failure()
                    last_error = timeout
                else:
                    health.record_success(elapsed)
                    breaker.record_success()
                    health.breaker_state = breaker.state.value
                    health.last_cycle_elapsed_s = (
                        self.clock.now() - cycle_start
                    )
                    registry.commit(name, series)
                    return FetchOutcome(
                        name=name, series=series, ok=True, stale=False
                    )
            health.breaker_state = breaker.state.value
            if not breaker.allow():
                break  # breaker tripped mid-retry; stop burning attempts
            if attempt < policy.max_attempts - 1:
                # Derived at the source's first failed attempt and kept:
                # the policy is frozen.
                if name not in self._delays:
                    self._delays[name] = policy.schedule(name)
                delay = self._delays[name][attempt]
                if (
                    deadline is not None
                    and delay >= deadline.remaining()
                ):
                    # Sleeping would spend the rest of the budget on
                    # nothing; cut the retry loop short instead.
                    last_error = SourceUnavailableError(
                        f"{name}: backoff of {delay:.3f}s exceeds the "
                        f"remaining deadline budget "
                        f"({max(0.0, deadline.remaining()):.3f}s)"
                    )
                    break
                self.clock.sleep(delay)
        health.last_cycle_elapsed_s = self.clock.now() - cycle_start
        return self._fallback(registry, name, health, last_error)

    def _fallback(
        self,
        registry: "SignalSourceRegistry",
        name: str,
        health: SourceHealth,
        error: BaseException,
    ) -> FetchOutcome:
        message = f"{type(error).__name__}: {error}"
        if self.config.allow_stale:
            stale = registry.last_good(name)
            if stale is not None:
                health.stale = True
                return FetchOutcome(
                    name=name, series=stale, ok=False, stale=True,
                    error=message,
                )
        health.stale = False
        return FetchOutcome(
            name=name, series=None, ok=False, stale=False, error=message
        )
