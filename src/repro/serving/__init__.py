"""Overload-safe serving for USaaS (§5 as a *service*, not a function).

:mod:`repro.resilience` makes ingestion fault-isolated; this package
makes the *query front-end* overload-safe — the discipline
crowdsourced QoE platforms live or die on.  Four pieces:

* :mod:`repro.serving.deadline` — :class:`Deadline`, a monotonic
  per-query budget on the injectable clock; the ingestion executor
  clamps every per-attempt timeout to the remaining budget so retries
  are cut short instead of overrunning;
* :mod:`repro.serving.admission` — :class:`AdmissionController`, a
  bounded pending queue + concurrency limiter with priority classes
  (``interactive`` > ``batch`` > ``monitoring``) and LIFO-or-priority
  shedding via typed, picklable
  :class:`~repro.errors.QueryRejectedError`;
* :mod:`repro.serving.server` — :class:`UsaasServer`, the facade that
  runs admitted queries through ``UsaasService.answer()``, accounts
  every submission in exactly one terminal state, tracks per-class
  latency percentiles, and drains gracefully;
* :mod:`repro.serving.soak` — :func:`run_soak`, the deterministic
  overload harness driven by :meth:`FaultPlan.load_spikes`.
"""

from repro.serving.admission import (
    PRIORITY_CLASSES,
    SHED_POLICIES,
    AdmissionController,
    Ticket,
)
from repro.serving.deadline import Deadline
from repro.serving.server import (
    OUTCOME_STATUSES,
    ClassCounters,
    DrainReport,
    QueryOutcome,
    ServingMetrics,
    UsaasServer,
)
from repro.serving.soak import SoakReport, run_soak

__all__ = [
    "AdmissionController",
    "ClassCounters",
    "Deadline",
    "DrainReport",
    "OUTCOME_STATUSES",
    "PRIORITY_CLASSES",
    "QueryOutcome",
    "SHED_POLICIES",
    "ServingMetrics",
    "SoakReport",
    "Ticket",
    "UsaasServer",
    "run_soak",
]
