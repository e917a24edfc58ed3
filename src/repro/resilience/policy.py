"""Retry policies and fallback chains.

The backoff schedule is a pure function of ``(seed, key, attempt)``:
jitter is drawn from a :func:`repro.rng.derive` stream, never from
global randomness, so the same policy produces the same delays on every
run and every platform — the property the chaos suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro import rng as rng_mod
from repro.errors import ConfigError, ReproError, SourceUnavailableError
from repro.resilience.clock import Clock, MonotonicClock


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


def call_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    key: str,
    clock: Optional[Clock] = None,
    retry_on: Tuple[type, ...] = (ReproError, OSError, ValueError),
) -> Any:
    """Run ``fn`` under ``policy``; raise SourceUnavailableError when spent.

    Timeouts are measured, not enforced: the attempt runs to completion
    and is *counted* as failed if the clock says it blew its budget.
    (Simulated slow calls in tests advance a :class:`ManualClock`.)
    Exceptions outside ``retry_on`` — programming errors — propagate
    immediately, unretried.
    """
    clock = clock or MonotonicClock()
    delays = policy.schedule(key)
    last_error: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        start = clock.now()
        try:
            result = fn()
        except retry_on as exc:
            last_error = exc
        else:
            elapsed = clock.now() - start
            if (
                policy.attempt_timeout_s is not None
                and elapsed > policy.attempt_timeout_s
            ):
                last_error = SourceUnavailableError(
                    f"{key}: attempt {attempt + 1} took {elapsed:.3f}s "
                    f"(budget {policy.attempt_timeout_s:.3f}s)"
                )
            else:
                return result
        if attempt < len(delays):
            clock.sleep(delays[attempt])
    raise SourceUnavailableError(
        f"{key}: all {policy.max_attempts} attempts failed "
        f"(last: {type(last_error).__name__}: {last_error})"
    ) from last_error


@dataclass(frozen=True)
class FallbackResult:
    """Outcome of a fallback chain call.

    Attributes:
        value: the successful return value.
        used: name of the link that served the call.
        used_index: its position in the chain (0 = primary).
        errors: ``(name, repr)`` for every link that failed first.
    """

    value: Any
    used: str
    used_index: int
    errors: Tuple[Tuple[str, str], ...]

    @property
    def degraded(self) -> bool:
        return self.used_index > 0


class Fallback:
    """An ordered chain of alternatives: primary first, then stand-ins.

    Links are ``(name, callable)`` pairs; :meth:`call` tries each in
    order and returns a :class:`FallbackResult` naming which one served.
    The canonical USaaS example chains an Azure-style hosted sentiment
    scorer in front of the offline lexicon
    :class:`~repro.nlp.sentiment.SentimentAnalyzer`.
    """

    def __init__(self, *links: Tuple[str, Callable[..., Any]]) -> None:
        if not links:
            raise ConfigError("fallback chain needs at least one link")
        seen = set()
        for name, fn in links:
            if not name or not callable(fn):
                raise ConfigError("each link must be (name, callable)")
            if name in seen:
                raise ConfigError(f"duplicate fallback link {name!r}")
            seen.add(name)
        self._links: Tuple[Tuple[str, Callable[..., Any]], ...] = tuple(links)
        self.served_by: dict = {name: 0 for name, _ in links}

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._links)

    def call(self, *args: Any, **kwargs: Any) -> FallbackResult:
        errors: List[Tuple[str, str]] = []
        for index, (name, fn) in enumerate(self._links):
            try:
                value = fn(*args, **kwargs)
            except (ReproError, OSError, ValueError) as exc:
                errors.append((name, f"{type(exc).__name__}: {exc}"))
                continue
            self.served_by[name] += 1
            return FallbackResult(
                value=value, used=name, used_index=index, errors=tuple(errors)
            )
        raise SourceUnavailableError(
            "every link in the fallback chain failed: "
            + "; ".join(f"{n}: {e}" for n, e in errors)
        )
