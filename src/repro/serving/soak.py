"""Deterministic overload soak: drive a server through a load spike.

The soak loop is a tiny discrete-event simulation over the server's
injected clock: arrivals (from :meth:`FaultPlan.load_spikes`) are
submitted at their scheduled instants, the server executes queued
queries in priority order between arrivals, and time only moves when a
query *runs* (source fetches, backoff, simulated hangs) or the server
idles until the next arrival.  On a
:class:`~repro.resilience.clock.ManualClock` the whole soak — including
a sustained 5x-capacity spike — executes in microseconds of real time
and is exactly reproducible from the plan's seed.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import QueryRejectedError
from repro.serving.admission import Ticket
from repro.serving.server import (
    DrainReport,
    ServingMetrics,
    UsaasServer,
    terminal_total,
)
from repro.verdict import Verdict


@dataclass(frozen=True)
class SoakReport:
    """Everything one soak run produced, in a byte-stable shape."""

    arrivals: int
    submitted: int
    served: int
    served_degraded: int
    shed: int
    deadline_exceeded: int
    failed: int
    drain: DrainReport
    metrics: ServingMetrics
    final_clock_s: float

    @property
    def accounted(self) -> bool:
        """Every submitted query landed in exactly one terminal state."""
        return self.submitted == terminal_total(self.counters_dict())

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    def verdict(self) -> Verdict:
        """Exit 2 when the books stay open or the drain left work."""
        if not self.accounted:
            return Verdict(2, (
                "accounting violation: submitted != sum(terminal states)",
            ))
        if not self.drain.clean:
            return Verdict(2, (
                "drain left work behind: " + self.drain.summary(),
            ))
        return Verdict()

    def counters_dict(self) -> Dict[str, object]:
        """Stable dict for byte-identity assertions across runs."""
        return {
            "arrivals": self.arrivals,
            "submitted": self.submitted,
            "served": self.served,
            "served_degraded": self.served_degraded,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "leftover_pending": self.drain.leftover_pending,
            "in_flight": self.drain.in_flight,
            "per_class": self.metrics.as_dict(),
            "final_clock_s": round(self.final_clock_s, 6),
        }

    def summary(self) -> str:
        return (
            f"soak: {self.submitted} submitted -> {self.served} served, "
            f"{self.served_degraded} degraded, {self.shed} shed "
            f"({self.shed_rate:.0%}), "
            f"{self.deadline_exceeded} deadline-exceeded, "
            f"{self.failed} failed; {self.drain.summary()}"
        )


def replay(
    server: UsaasServer,
    arrivals: Sequence,
    query_for: Callable[[Any], Any],
) -> Tuple[List[Tuple[Any, Ticket]], DrainReport]:
    """Submit time-ordered ``arrivals`` into ``server`` on its clock, drain.

    Between arrivals the server works off its queue; executing a query
    advances the clock, so this is where overload builds up.  While
    idle, the clock moves to the next arrival — in steps of half the
    coalescer's ``max_delay_s`` when the server has one, so age-due
    batches flush promptly instead of an arbitrary interval late.

    Shedding is part of normal operation: a rejected submission is
    already accounted by the server, and the replay moves on.  Returns
    the admitted ``(arrival, ticket)`` pairs and the drain report.
    """
    clock = server.clock
    advance = getattr(clock, "advance", clock.sleep)
    tick = None
    if server.coalescer is not None:
        delay = server.coalescer.config.max_delay_s
        tick = delay / 2 if delay > 0 else None
    admitted: List[Tuple[Any, Ticket]] = []
    for arrival in sorted(arrivals, key=lambda a: a.at_s):
        while clock.now() < arrival.at_s:
            if server.has_pending():
                server.run_next()
            else:
                step = arrival.at_s - clock.now()
                advance(step if tick is None else min(step, tick))
        try:
            ticket = server.submit(
                query_for(arrival),
                priority=arrival.priority,
                deadline_s=getattr(arrival, "deadline_s", None),
            )
        except QueryRejectedError:
            continue
        admitted.append((arrival, ticket))
    return admitted, server.drain()


def run_soak(
    server: UsaasServer,
    arrivals: Sequence,
    query_for=None,
) -> SoakReport:
    """Submit ``arrivals`` against ``server`` and drain.

    ``arrivals`` are objects with ``at_s`` / ``priority`` /
    ``deadline_s`` (see :class:`repro.resilience.faults.Arrival`);
    ``query_for`` maps an arrival to the query it submits (None uses
    ``arrival.query``).
    """
    _, drain = replay(
        server, arrivals, query_for or (lambda arrival: arrival.query)
    )
    metrics = server.metrics()
    return SoakReport(
        arrivals=len(arrivals),
        **metrics.totals(),
        drain=drain,
        metrics=metrics,
        final_clock_s=server.clock.now(),
    )


# -- a canonical synthetic workload ---------------------------------------
#
# The CLI ``usaas soak`` subcommand and the soak tests both need a
# self-contained service whose per-query cost is *simulated* (slow-source
# faults advancing the ManualClock), so overload factors are exact and
# runs are deterministic.  Building it here keeps the two consumers
# byte-compatible.

_DAY0 = dt.datetime(2022, 4, 1, 12, 0)


def _implicit_series():
    from repro.core.signals import ImplicitSignal, SignalSeries
    from repro.core.usaas.privacy import scrub_author

    series = SignalSeries()
    for day in range(10):
        ts = _DAY0 + dt.timedelta(days=day)
        for u in range(12):
            user = scrub_author(f"user-{u}")
            series.append(ImplicitSignal(
                ts, "starlink", "presence", 80.0 + u - day,
                service="teams", user=user,
            ))
            series.append(ImplicitSignal(
                ts, "starlink", "cam_on", 60.0 + (u % 5),
                service="teams", user=user,
            ))
    return series


def _explicit_series():
    from repro.core.signals import ExplicitSignal, SignalSeries
    from repro.core.usaas.privacy import scrub_author

    series = SignalSeries()
    for day in range(10):
        ts = _DAY0 + dt.timedelta(days=day)
        for u in range(12):
            series.append(ExplicitSignal(
                ts, "starlink", "sentiment_polarity", 0.4 - 0.05 * day,
                user=scrub_author(f"poster-{u}"),
            ))
    return series


def synthetic_soak_service(
    plan,
    slow_s: float = 0.05,
    attempt_timeout_s: float = 0.2,
    max_attempts: int = 2,
    include_flaky: bool = False,
):
    """A self-contained USaaS service whose query cost is simulated.

    Two healthy feeds each "take" ``slow_s`` simulated seconds per fetch
    (the plan's slow fault advances its :class:`ManualClock`), so one
    query costs about ``2 * slow_s`` of clock time — which makes
    :func:`estimated_service_time_s` exact enough to dial in a precise
    overload factor.  ``include_flaky`` adds an always-failing third
    feed so every answer is *degraded* and retries/backoff burn deadline
    budget, reusing the PR 1/3 fault specs.
    """
    from repro.core.usaas import UsaasService
    from repro.resilience.executor import ResilienceConfig
    from repro.resilience.faults import ALWAYS_FAIL, always_slow
    from repro.resilience.policy import RetryPolicy

    config = ResilienceConfig(
        retry=RetryPolicy(
            max_attempts=max_attempts, base_delay_s=0.01, jitter=0.1,
            attempt_timeout_s=attempt_timeout_s, seed=plan.seed,
        ),
        min_sources=1,
    )
    service = UsaasService(resilience=config, clock=plan.clock)
    service.register_source("telemetry", plan.wrap_source(
        "telemetry", _implicit_series, always_slow(slow_s)))
    service.register_source("social", plan.wrap_source(
        "social", _explicit_series, always_slow(slow_s)))
    if include_flaky:
        service.register_source("flaky", plan.wrap_source(
            "flaky", _implicit_series, ALWAYS_FAIL))
    return service


def estimated_service_time_s(slow_s: float, n_sources: int = 2) -> float:
    """Simulated clock cost of one fully-healthy query."""
    return float(slow_s) * int(n_sources)
