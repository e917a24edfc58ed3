"""Fault isolation for the USaaS ingestion path.

A production USaaS deployment ingests signals from feeds it does not
control — application telemetry exports, social-media pipelines, paid
sentiment APIs.  Crowdsourced-measurement deployments report exactly one
dominant failure mode: *partial* availability, where one feed is flaky
while the rest are fine.  This package keeps one bad source from taking
the whole service down:

* :mod:`repro.resilience.clock` — injectable time so nothing here ever
  needs a real ``sleep`` under test;
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`, deterministic
  exponential backoff with seeded jitter;
* :mod:`repro.resilience.breaker` — a :class:`CircuitBreaker` with
  closed/open/half-open states over a rolling outcome window;
* :mod:`repro.resilience.health` — per-source :class:`SourceHealth`
  records surfaced on every :class:`~repro.core.usaas.service.UsaasReport`;
* :mod:`repro.resilience.executor` — :class:`SourceExecutor`, the glue
  that runs a registry source through breaker + retry + stale-cache
  fallback and writes the health ledger;
* :mod:`repro.resilience.faults` — :class:`FaultPlan`, a deterministic
  chaos harness the test suite uses to prove all of the above.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.clock import Clock, ManualClock, MonotonicClock
from repro.resilience.executor import (
    FetchOutcome,
    ResilienceConfig,
    SourceExecutor,
)
from repro.resilience.faults import (
    Arrival,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    LoadSpikeSpec,
)
from repro.resilience.health import HealthLedger, SourceHealth, health_table
from repro.resilience.policy import RetryPolicy

__all__ = [
    "Arrival",
    "BreakerState",
    "CircuitBreaker",
    "Clock",
    "FaultPlan",
    "FaultSpec",
    "FetchOutcome",
    "HealthLedger",
    "InjectedFault",
    "LoadSpikeSpec",
    "ManualClock",
    "MonotonicClock",
    "ResilienceConfig",
    "RetryPolicy",
    "SourceExecutor",
    "SourceHealth",
    "health_table",
]
