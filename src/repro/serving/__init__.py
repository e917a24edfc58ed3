"""Overload-safe serving for USaaS (§5 as a *service*, not a function).

:mod:`repro.resilience` makes ingestion fault-isolated; this package
makes the *query front-end* overload-safe — the discipline
crowdsourced QoE platforms live or die on.  Seven pieces:

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
  overload harness driven by :meth:`FaultPlan.load_spikes`;
* :mod:`repro.serving.hashring` — :class:`HashRing`, consistent
  hashing with virtual nodes and a deterministic failover ladder;
* :mod:`repro.serving.cluster` — :class:`UsaasCluster`, the routing
  front-end over N replicas: per-tenant quotas + weighted-fair
  admission, breaker-driven ring rebalance, exact-once cluster
  accounting;
* :mod:`repro.serving.cluster_soak` — :func:`run_cluster_soak`, the
  cluster-wide soak replaying seeded arrivals against a seeded replica
  fault timeline.
"""

from repro.serving.admission import (
    PRIORITY_CLASSES,
    SHED_POLICIES,
    AdmissionController,
    Ticket,
)
from repro.serving.cluster import (
    REPLICA_STATES,
    ClusterMetrics,
    ReplicaHandle,
    TenantPolicy,
    TenantState,
    UsaasCluster,
)
from repro.serving.cluster_soak import (
    ClusterSoakReport,
    replica_seed,
    run_cluster_soak,
    synthetic_cluster,
)
from repro.serving.deadline import Deadline
from repro.serving.hashring import HashRing
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
    "ClusterMetrics",
    "ClusterSoakReport",
    "Deadline",
    "DrainReport",
    "HashRing",
    "OUTCOME_STATUSES",
    "PRIORITY_CLASSES",
    "QueryOutcome",
    "REPLICA_STATES",
    "ReplicaHandle",
    "SHED_POLICIES",
    "ServingMetrics",
    "SoakReport",
    "TenantPolicy",
    "TenantState",
    "Ticket",
    "UsaasCluster",
    "UsaasServer",
    "replica_seed",
    "run_cluster_soak",
    "run_soak",
    "synthetic_cluster",
]
