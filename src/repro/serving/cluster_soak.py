"""Deterministic cluster soak: overload + replica failures, replayed.

Extends the single-server soak (:mod:`repro.serving.soak`) to a whole
:class:`~repro.serving.cluster.UsaasCluster`: seeded Poisson arrivals
(:meth:`FaultPlan.cluster_load_spikes`) are interleaved with a replica
fault timeline (:meth:`FaultPlan.replica_faults`) on the router's
:class:`~repro.resilience.clock.ManualClock`.  Between events the
cluster executes queued work in global simulated-time order, so a
replica crash mid-spike exercises the full failover story — queue loss,
breaker discovery, ring rebalance, half-open rejoin — in microseconds
of wall time, byte-identically per seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.usaas.service import UsaasQuery
from repro.errors import ConfigError, LedgerViolationError, QueryRejectedError
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, ReplicaFaultEvent
from repro.serving.cluster import (
    ClusterMetrics,
    ReplicaHandle,
    TenantPolicy,
    UsaasCluster,
)
from repro.serving.server import UsaasServer
from repro.verdict import Verdict


@dataclass(frozen=True)
class ClusterSoakReport:
    """Everything one cluster soak produced, in a byte-stable shape."""

    arrivals: int
    fault_events: int
    submitted: int
    served: int
    served_degraded: int
    shed: int
    deadline_exceeded: int
    failed: int
    router_shed: Tuple[Tuple[str, int], ...]
    drain: Dict[str, int]
    metrics: ClusterMetrics
    final_router_clock_s: float
    final_replica_clocks_s: Tuple[Tuple[str, float], ...]

    @property
    def accounted(self) -> bool:
        """Cluster-wide exact-once ledger closed (post drain)."""
        try:
            self.metrics.check_exact_once()
        except LedgerViolationError:
            return False
        return True

    @property
    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    def verdict(self) -> Verdict:
        """Exit 2 on an open ledger or leftover work, 3 on total outage."""
        if not self.accounted:
            return Verdict(2, (
                "accounting violation: cluster ledger did not close",
            ))
        if self.drain["leftover"]:
            return Verdict(2, (
                f"drain left {self.drain['leftover']} queries behind",
            ))
        if self.submitted and not (self.served + self.served_degraded):
            return Verdict(3, ("total outage: nothing was served",))
        return Verdict()

    def counters_dict(self) -> Dict[str, object]:
        """Stable dict for byte-identity assertions across runs."""
        return {
            "arrivals": self.arrivals,
            "fault_events": self.fault_events,
            "submitted": self.submitted,
            "served": self.served,
            "served_degraded": self.served_degraded,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "router_shed": dict(self.router_shed),
            "drain": dict(self.drain),
            "cluster": self.metrics.as_dict(),
            "final_router_clock_s": round(self.final_router_clock_s, 6),
            "final_replica_clocks_s": {
                name: round(t, 6) for name, t in self.final_replica_clocks_s
            },
        }

    def summary(self) -> str:
        router_shed = sum(n for _, n in self.router_shed)
        return (
            f"cluster soak: {self.submitted} submitted -> "
            f"{self.served} served, {self.served_degraded} degraded, "
            f"{self.shed} shed ({self.shed_rate:.0%}, "
            f"{router_shed} at router), "
            f"{self.deadline_exceeded} deadline-exceeded, "
            f"{self.failed} failed across {len(self.metrics.replicas)} "
            f"replicas ({self.fault_events} fault events, "
            f"{self.metrics.rebalances} rebalances)"
        )


def run_cluster_soak(
    cluster: UsaasCluster,
    arrivals: Sequence,
    fault_events: Sequence[ReplicaFaultEvent] = (),
    query_for=None,
) -> ClusterSoakReport:
    """Replay ``arrivals`` + ``fault_events`` against ``cluster``, drain.

    ``arrivals`` are :class:`~repro.resilience.faults.ClusterArrival`
    objects (``at_s`` / ``priority`` / ``deadline_s`` / ``tenant`` /
    ``key``); fault events come from :meth:`FaultPlan.replica_faults`.
    Both timelines are merged in time order, with a fault event applied
    *before* any arrival at the same instant — an outage starting at
    ``t`` affects the query arriving at ``t``.

    ``query_for`` maps an arrival to the query it submits; when None,
    the arrival's own ``query`` attribute is used if present, else a
    default :class:`UsaasQuery` — so a bare
    :class:`~repro.resilience.faults.ClusterArrival` schedule replays
    out of the box.

    Shedding — at the router or at a replica — is normal operation: the
    typed rejection is caught, already accounted, and the replay moves
    on.  After the last event the cluster drains, which also closes the
    ledger on replicas still dead at drain time.
    """
    clock = cluster.clock
    advance = getattr(clock, "advance", clock.sleep)
    default_query = UsaasQuery(network="starlink", service="teams")
    # (at_s, kind, tie) where faults (kind 0) sort before arrivals
    # (kind 1) at equal times and ``tie`` keeps each source stable.
    timeline: List[Tuple[float, int, int, object]] = []
    for i, event in enumerate(sorted(
        fault_events, key=lambda e: (e.at_s, e.replica, e.action)
    )):
        timeline.append((event.at_s, 0, i, event))
    for i, arrival in enumerate(sorted(arrivals, key=lambda a: a.at_s)):
        timeline.append((arrival.at_s, 1, i, arrival))
    timeline.sort(key=lambda item: item[:3])
    n_arrivals = 0
    for at_s, kind, _, item in timeline:
        # Execute queued work scheduled before this instant, replica
        # clocks advancing independently — this is where the cluster's
        # N-way parallelism (and its loss during an outage) shows up.
        cluster.run_until(at_s)
        if clock.now() < at_s:
            advance(at_s - clock.now())
        if kind == 0:
            cluster.apply_fault(item)
            continue
        n_arrivals += 1
        query = (
            query_for(item) if query_for is not None
            else getattr(item, "query", default_query)
        )
        try:
            cluster.submit(
                query,
                key=item.key,
                tenant=item.tenant,
                priority=item.priority,
                deadline_s=getattr(item, "deadline_s", None),
            )
        except QueryRejectedError:
            # Accounted (router or replica); the replay keeps going.
            continue
    drain = cluster.drain()
    metrics = cluster.metrics()
    return ClusterSoakReport(
        arrivals=n_arrivals,
        fault_events=len(fault_events),
        **metrics.totals(),
        router_shed=metrics.router_shed,
        drain=drain,
        metrics=metrics,
        final_router_clock_s=clock.now(),
        final_replica_clocks_s=tuple(
            (name, cluster.replica(name).clock.now())
            for name in cluster.replica_names
        ),
    )


def replica_seed(seed: int, index: int) -> int:
    """Stable per-replica sub-seed (cross-process, platform-independent)."""
    digest = hashlib.sha256(f"{seed}:replica:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def synthetic_cluster(
    seed: int,
    n_replicas: int = 3,
    slow_s: float = 0.05,
    attempt_timeout_s: float = 0.2,
    max_pending: int = 8,
    shed_policy: str = "priority",
    tenants: Sequence[TenantPolicy] = (),
    include_flaky: bool = False,
    breaker_recovery_s: float = 2.0,
) -> Tuple[UsaasCluster, FaultPlan]:
    """A self-contained N-replica cluster with simulated query cost.

    Each replica ``r0..r{n-1}`` gets its *own* :class:`ManualClock` and
    :class:`FaultPlan` (sub-seeded via :func:`replica_seed`, so replicas
    draw independent — but per-seed reproducible — source-fault
    streams) wrapped around the PR 5 synthetic soak service.  Returns
    the cluster plus a router-clock :class:`FaultPlan` to draw arrival
    and replica-fault schedules from.
    """
    from repro.serving.soak import synthetic_soak_service

    if n_replicas < 1:
        raise ConfigError("n_replicas must be >= 1")
    router_clock = ManualClock()
    handles: List[ReplicaHandle] = []
    for i in range(n_replicas):
        plan = FaultPlan(seed=replica_seed(seed, i), clock=ManualClock())
        service = synthetic_soak_service(
            plan,
            slow_s=slow_s,
            attempt_timeout_s=attempt_timeout_s,
            include_flaky=include_flaky,
        )
        server = UsaasServer(
            service,
            max_pending=max_pending,
            shed_policy=shed_policy,
        )
        handles.append(ReplicaHandle(
            name=f"r{i}", server=server, clock=plan.clock,
        ))
    cluster = UsaasCluster(
        handles,
        clock=router_clock,
        tenants=tenants,
        breaker_recovery_s=breaker_recovery_s,
    )
    return cluster, FaultPlan(seed=seed, clock=router_clock)
