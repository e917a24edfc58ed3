"""Multi-replica USaaS cluster: routing, quotas, failover, accounting.

PR 5 made one :class:`~repro.serving.server.UsaasServer` overload-safe.
This module scales the claim out: :class:`UsaasCluster` is a routing
front-end over N replicas that keeps "millions of users" measurable:

* **consistent-hash routing** — every query carries a key (user /
  source id); a :class:`~repro.serving.hashring.HashRing` maps it to a
  primary replica plus a deterministic failover ladder, so a user's
  queries land on the same replica until membership changes;
* **per-tenant quotas** — a token bucket per tenant on the router's
  injected clock plus stride-scheduler weighted-fair admission:
  under congestion each tenant's admitted share converges to its
  configured weight, and excess is shed as ``quota_exceeded``;
* **replica failover** — each replica sits behind a PR 1
  :class:`~repro.resilience.breaker.CircuitBreaker`.  The router
  discovers failures the way real routers do — by probing: a probe of
  a down replica records a breaker failure and walks to the next
  ladder entry; when a breaker opens, the replica is removed from the
  ring (rebalance on loss), and a half-open probe that finds it
  healthy again closes the breaker and re-adds it (rebalance on join);
* **exact-once accounting** — every ``submit()`` terminates exactly
  once: shed at the router (quota / no live replica) or handed to
  exactly one replica, whose own exactly-once machinery takes over.
  ``metrics().check_exact_once()`` asserts the cluster-wide ledger:
  ``submitted == router_shed + sum(replica.submitted)``.

Every replica runs on its *own* :class:`ManualClock` (simulated time
advances per replica, so N replicas genuinely serve in parallel), while
the router keeps its own clock for arrivals, quotas and breaker
cool-downs.  All of it is deterministic: same seed, same counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, LedgerViolationError, QueryRejectedError
from repro.io.tables import format_left_table
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.clock import Clock, ManualClock
from repro.serving.admission import Ticket
from repro.serving.hashring import HashRing
from repro.serving.server import (
    OUTCOME_STATUSES,
    QueryOutcome,
    ServingMetrics,
    UsaasServer,
    _percentile,
    terminal_total,
)


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract at the router.

    ``weight`` drives weighted-fair sharing under congestion (a weight-2
    tenant gets twice the admissions of a weight-1 tenant once the
    cluster queues fill).  ``rate_per_s`` / ``burst`` configure an
    absolute token-bucket quota on the router clock; ``None`` means no
    absolute cap.
    """

    name: str
    weight: float = 1.0
    rate_per_s: Optional[float] = None
    burst: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ConfigError("tenant weight must be positive")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        if self.burst < 1.0:
            raise ConfigError("burst must be >= 1")


@dataclass
class TenantState:
    """Mutable per-tenant accounting at the router."""

    policy: TenantPolicy
    tokens: float = 0.0
    last_refill_s: float = 0.0
    virtual_time: float = 0.0
    submitted: int = 0
    admitted: int = 0
    shed_quota: int = 0
    shed_fair: int = 0
    shed_no_replica: int = 0
    shed_replica: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed_quota": self.shed_quota,
            "shed_fair": self.shed_fair,
            "shed_no_replica": self.shed_no_replica,
            "shed_replica": self.shed_replica,
        }


#: Replica lifecycle states as the *cluster* (ground truth) sees them.
#: The router only learns about them by probing.
REPLICA_STATES: Tuple[str, ...] = ("up", "down", "hung")


class ReplicaHandle:
    """One simulated replica: a server, its own clock, its fault state."""

    def __init__(
        self,
        name: str,
        server: UsaasServer,
        clock: ManualClock,
    ) -> None:
        if not name:
            raise ConfigError("replica name must be non-empty")
        self.name = name
        self.server = server
        self.clock = clock
        self.state = "up"
        self.slow_extra_s = 0.0
        self.crashes = 0
        self.hangs = 0
        self.recoveries = 0

    @property
    def available(self) -> bool:
        return self.state == "up"

    def has_runnable(self) -> bool:
        return self.available and self.server.has_pending()

    def sync_to(self, t: float) -> None:
        """Advance this replica's clock to router time ``t`` (never back)."""
        gap = t - self.clock.now()
        if gap > 0:
            self.clock.advance(gap)

    def run_next(self) -> Optional[QueryOutcome]:
        """Run one queued query, paying any active slow-fault tax."""
        if not self.has_runnable():
            return None
        if self.slow_extra_s > 0:
            self.clock.advance(self.slow_extra_s)
        return self.server.run_next()

    def crash(self) -> List[QueryOutcome]:
        """Process death: queue dies with it, accounted as ``failed``."""
        self.state = "down"
        self.crashes += 1
        return self.server.fail_pending(f"replica {self.name} crashed")

    def hang(self) -> None:
        """Stop serving but keep the queue (resumes on recover)."""
        self.state = "hung"
        self.hangs += 1

    def recover(self, t: float) -> None:
        self.state = "up"
        self.recoveries += 1
        self.sync_to(t)


@dataclass(frozen=True)
class ClusterMetrics:
    """Point-in-time cluster ledger: replicas + router + tenants."""

    replicas: Tuple[Tuple[str, ServingMetrics], ...]
    router_shed: Tuple[Tuple[str, int], ...]
    tenants: Tuple[Tuple[str, Dict[str, object]], ...]
    submitted: int
    routed: Tuple[Tuple[str, int], ...]
    rebalances: int

    @property
    def router_shed_total(self) -> int:
        return sum(n for _, n in self.router_shed)

    def replica_metrics(self, name: str) -> ServingMetrics:
        for replica, metrics in self.replicas:
            if replica == name:
                return metrics
        raise ConfigError(f"unknown replica {name!r}")

    def totals(self) -> Dict[str, int]:
        """Cluster ledger: the replicas' ledgers plus router shed."""
        out = {"submitted": self.submitted,
               **dict.fromkeys(OUTCOME_STATUSES, 0)}
        out["shed"] = self.router_shed_total
        for _, metrics in self.replicas:
            replica = metrics.totals()
            for status in OUTCOME_STATUSES:
                out[status] += replica[status]
        return out

    def check_exact_once(self) -> None:
        """Raise :class:`LedgerViolationError` unless the ledger closes.

        Two equalities must hold: every submission was either shed at
        the router or counted by exactly one replica, and every
        replica-side submission reached exactly one terminal state.
        """
        replica_submitted = sum(
            m.submitted for _, m in self.replicas
        )
        if self.submitted != self.router_shed_total + replica_submitted:
            raise LedgerViolationError(
                f"cluster accounting violated: {self.submitted} submitted "
                f"!= {self.router_shed_total} router-shed + "
                f"{replica_submitted} replica-submitted"
            )
        terminal = terminal_total(self.totals())
        if self.submitted != terminal:
            raise LedgerViolationError(
                f"cluster accounting violated: {self.submitted} submitted "
                f"!= {terminal} terminal outcomes"
            )

    def latencies(self) -> List[float]:
        out: List[float] = []
        for _, metrics in self.replicas:
            out.extend(metrics.latencies())
        return out

    def p50_admitted_s(self) -> Optional[float]:
        return _percentile(self.latencies(), 50)

    def p99_admitted_s(self) -> Optional[float]:
        return _percentile(self.latencies(), 99)

    def as_dict(self) -> Dict[str, object]:
        """Stable JSON-ready ledger for byte-identity assertions."""
        return {
            "submitted": self.submitted,
            "totals": self.totals(),
            "router_shed": dict(self.router_shed),
            "routed": dict(self.routed),
            "rebalances": self.rebalances,
            "replicas": {
                name: metrics.as_dict() for name, metrics in self.replicas
            },
            "tenants": {name: stats for name, stats in self.tenants},
        }

    def table(self) -> str:
        """Fixed-width per-replica totals table (CLI / log friendly)."""
        rows = []
        for name, metrics in self.replicas:
            p99 = metrics.p99_latency_s()
            rows.append((
                name, *(str(n) for n in metrics.totals().values()),
                "-" if p99 is None else f"{p99:.3f}s",
            ))
        return format_left_table(
            ("replica", "submitted", "served", "degraded", "shed",
             "deadline", "failed", "p99"),
            rows,
        )


class UsaasCluster:
    """Consistent-hash router + quotas + failover over N replicas.

    The router's picture of the world is *inferred*: it never reads a
    replica's ``state`` except by probing at routing time, so a crashed
    replica keeps absorbing (and failing) probes until its breaker
    opens — exactly the discovery lag a real fleet has, made
    deterministic.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaHandle],
        clock: Optional[Clock] = None,
        tenants: Sequence[TenantPolicy] = (),
        vnodes: int = 64,
        max_failover: Optional[int] = None,
        fair_horizon: float = 16.0,
        breaker_window: int = 8,
        breaker_min_calls: int = 2,
        breaker_recovery_s: float = 2.0,
    ) -> None:
        if not replicas:
            raise ConfigError("a cluster needs at least one replica")
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ConfigError("replica names must be unique")
        if fair_horizon <= 0:
            raise ConfigError("fair_horizon must be positive")
        self._replicas: Dict[str, ReplicaHandle] = {
            r.name: r for r in replicas
        }
        self._order: Tuple[str, ...] = tuple(names)
        self._clock: Clock = clock or ManualClock()
        self.ring = HashRing(names, vnodes=vnodes)
        self.max_failover = (
            len(names) - 1 if max_failover is None else int(max_failover)
        )
        if self.max_failover < 0:
            raise ConfigError("max_failover must be >= 0")
        self.fair_horizon = float(fair_horizon)
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                window=breaker_window,
                min_calls=breaker_min_calls,
                recovery_s=breaker_recovery_s,
                clock=self._clock,
                name=f"replica:{name}",
            )
            for name in names
        }
        self._tenants: Dict[str, TenantState] = {}
        for policy in tenants:
            if policy.name in self._tenants:
                raise ConfigError(f"duplicate tenant {policy.name!r}")
            self._tenants[policy.name] = TenantState(
                policy=policy, tokens=policy.burst,
                last_refill_s=self._clock.now(),
            )
        self._submitted = 0
        self._router_shed: Dict[str, int] = {
            "quota_exceeded": 0, "no_replica": 0,
        }
        self._routed: Dict[str, int] = {name: 0 for name in names}
        self.rebalances = 0
        self.log: List[Tuple[str, str]] = []

    # -- introspection -----------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def replica_names(self) -> Tuple[str, ...]:
        return self._order

    def replica(self, name: str) -> ReplicaHandle:
        if name not in self._replicas:
            raise ConfigError(f"unknown replica {name!r}")
        return self._replicas[name]

    def breaker(self, name: str) -> CircuitBreaker:
        return self._breakers[name]

    def tenant_state(self, name: str) -> TenantState:
        if name not in self._tenants:
            self._tenants[name] = TenantState(
                policy=TenantPolicy(name=name),
                last_refill_s=self._clock.now(),
            )
        return self._tenants[name]

    def has_pending(self) -> bool:
        return any(h.has_runnable() for h in self._replicas.values())

    def pending_count(self) -> int:
        return sum(
            h.server.admission.pending_count()
            for h in self._replicas.values()
        )

    def metrics(self) -> ClusterMetrics:
        return ClusterMetrics(
            replicas=tuple(
                (name, self._replicas[name].server.metrics())
                for name in self._order
            ),
            router_shed=tuple(sorted(self._router_shed.items())),
            tenants=tuple(
                (name, state.as_dict())
                for name, state in sorted(self._tenants.items())
            ),
            submitted=self._submitted,
            routed=tuple(
                (name, self._routed[name]) for name in self._order
            ),
            rebalances=self.rebalances,
        )

    # -- quota / fairness --------------------------------------------------

    def _refill(self, state: TenantState) -> None:
        policy = state.policy
        if policy.rate_per_s is None:
            return
        now = self._clock.now()
        elapsed = now - state.last_refill_s
        if elapsed > 0:
            state.tokens = min(
                policy.burst, state.tokens + elapsed * policy.rate_per_s
            )
        state.last_refill_s = now

    def _congested(self) -> bool:
        """Weighted-fair sharing only bites once queues half-fill."""
        capacity = sum(
            h.server.admission.max_pending
            for h in self._replicas.values() if h.available
        )
        if capacity <= 0:
            return True
        return self.pending_count() >= max(1, capacity // 2)

    def _check_tenant(self, state: TenantState, priority: str) -> None:
        """Apply quota + weighted-fair policy; raises to shed."""
        policy = state.policy
        if policy.rate_per_s is not None:
            self._refill(state)
            if state.tokens < 1.0:
                state.shed_quota += 1
                raise QueryRejectedError(
                    "quota_exceeded", priority,
                    f"tenant {policy.name!r} exhausted its "
                    f"{policy.rate_per_s:g}/s quota",
                )
        if len(self._tenants) > 1 and self._congested():
            active = [
                s.virtual_time for s in self._tenants.values()
                if s.admitted > 0
            ]
            min_vt = min(active) if active else 0.0
            if state.virtual_time > min_vt + self.fair_horizon:
                state.shed_fair += 1
                raise QueryRejectedError(
                    "quota_exceeded", priority,
                    f"tenant {policy.name!r} exceeded its weighted-fair "
                    f"share (weight {policy.weight:g})",
                )

    def _charge_tenant(self, state: TenantState) -> None:
        policy = state.policy
        if policy.rate_per_s is not None:
            state.tokens -= 1.0
        active = [
            s.virtual_time for s in self._tenants.values() if s.admitted > 0
        ]
        floor = min(active) if active else 0.0
        # A newly active tenant starts at the current fair floor instead
        # of claiming credit for the time it sat idle.
        state.virtual_time = max(state.virtual_time, floor)
        state.virtual_time += 1.0 / policy.weight
        state.admitted += 1

    # -- ring membership (driven by breaker observations) ------------------

    def _observe_failure(self, name: str) -> None:
        breaker = self._breakers[name]
        breaker.record_failure()
        if breaker.state is BreakerState.OPEN and name in self.ring:
            self.ring.remove(name)
            self.rebalances += 1
            self.log.append((name, "ring.remove"))

    def _observe_success(self, name: str) -> None:
        breaker = self._breakers[name]
        breaker.record_success()
        if breaker.state is BreakerState.CLOSED and name not in self.ring:
            self.ring.add(name)
            self.rebalances += 1
            self.log.append((name, "ring.add"))

    def _maybe_rejoin(self) -> None:
        """Probe evicted replicas whose breakers allow a half-open call."""
        for name in self._order:
            if name in self.ring:
                continue
            breaker = self._breakers[name]
            if not breaker.allow():
                continue
            handle = self._replicas[name]
            if handle.available:
                self._observe_success(name)
                self.log.append((name, "probe.recovered"))
            else:
                self._observe_failure(name)
                self.log.append((name, "probe.still-down"))

    # -- submission --------------------------------------------------------

    def submit(
        self,
        query,
        key: str,
        tenant: str = "default",
        priority: str = "interactive",
        deadline_s: Optional[float] = None,
    ) -> Tuple[str, Ticket]:
        """Route + admit one query, or shed it with a typed error.

        Exactly one of three things happens, and each is accounted once:
        the query is shed at the router (``quota_exceeded`` /
        ``no_replica``), shed by the chosen replica's admission
        controller (counted by that replica), or enqueued on exactly
        one replica.  Returns ``(replica_name, ticket)`` on admission.
        """
        self._submitted += 1
        state = self.tenant_state(tenant)
        state.submitted += 1
        try:
            self._check_tenant(state, priority)
        except QueryRejectedError:
            self._router_shed["quota_exceeded"] += 1
            raise
        self._maybe_rejoin()
        chosen: Optional[ReplicaHandle] = None
        if len(self.ring) > 0:
            ladder = self.ring.preference(key, n=self.max_failover + 1)
            for name in ladder:
                breaker = self._breakers[name]
                if not breaker.allow():
                    self.log.append((name, "route.breaker-open"))
                    continue
                handle = self._replicas[name]
                if not handle.available:
                    # The probe is the discovery mechanism: a failed
                    # dispatch feeds the breaker and the ladder moves on.
                    self._observe_failure(name)
                    self.log.append((name, "route.probe-failed"))
                    continue
                self._observe_success(name)
                chosen = handle
                break
        if chosen is None:
            self._router_shed["no_replica"] += 1
            state.shed_no_replica += 1
            raise QueryRejectedError(
                "no_replica", priority,
                f"no live replica for key {key!r} "
                f"({len(self.ring)} on ring)",
            )
        chosen.sync_to(self._clock.now())
        try:
            ticket = chosen.server.submit(
                query, priority=priority, deadline_s=deadline_s
            )
        except QueryRejectedError:
            # Accounted by the replica (its submitted + shed counters);
            # the router only tracks the tenant attribution.
            self._routed[chosen.name] += 1
            state.shed_replica += 1
            raise
        self._routed[chosen.name] += 1
        self._charge_tenant(state)
        return chosen.name, ticket

    # -- execution ---------------------------------------------------------

    def _next_runnable(
        self, before_s: Optional[float] = None
    ) -> Optional[ReplicaHandle]:
        """The runnable replica that is furthest behind in time.

        Picking the minimum replica clock (tie-break: configured order)
        executes queued work in global simulated-time order — the
        discrete-event rule that makes N replicas serve in parallel
        while staying deterministic.
        """
        best: Optional[ReplicaHandle] = None
        for name in self._order:
            handle = self._replicas[name]
            if not handle.has_runnable():
                continue
            if before_s is not None and handle.clock.now() >= before_s:
                continue
            if best is None or handle.clock.now() < best.clock.now():
                best = handle
        return best

    def run_next(self) -> Optional[Tuple[str, QueryOutcome]]:
        """Run one queued query cluster-wide (None when idle)."""
        handle = self._next_runnable()
        if handle is None:
            return None
        outcome = handle.run_next()
        if outcome is None:  # pragma: no cover - guarded by has_runnable
            return None
        return handle.name, outcome

    def run_until(self, t: float) -> int:
        """Run queued work on every replica whose clock is before ``t``."""
        ran = 0
        while True:
            handle = self._next_runnable(before_s=t)
            if handle is None:
                return ran
            handle.run_next()
            ran += 1

    # -- fault events ------------------------------------------------------

    def apply_fault(self, event) -> List[QueryOutcome]:
        """Apply one :class:`ReplicaFaultEvent` (ground-truth change).

        Returns the terminal outcomes the event forced (crash kills the
        queue).  The router's breakers learn about the change only
        through subsequent probes.
        """
        handle = self.replica(event.replica)
        handle.sync_to(self._clock.now())
        if event.action == "crash":
            self.log.append((event.replica, "fault.crash"))
            return handle.crash()
        if event.action == "hang":
            self.log.append((event.replica, "fault.hang"))
            handle.hang()
            return []
        if event.action == "recover":
            self.log.append((event.replica, "fault.recover"))
            handle.recover(self._clock.now())
            return []
        if event.action == "slow_start":
            self.log.append((event.replica, "fault.slow_start"))
            handle.slow_extra_s = float(event.slow_extra_s)
            return []
        if event.action == "slow_end":
            self.log.append((event.replica, "fault.slow_end"))
            handle.slow_extra_s = 0.0
            return []
        raise ConfigError(f"unknown replica fault action {event.action!r}")

    # -- drain -------------------------------------------------------------

    def drain(self) -> Dict[str, int]:
        """Finish every runnable queue; close the ledger on dead ones.

        Up replicas drain normally.  Replicas still hung at drain time
        have their held queries terminated as ``failed`` — work that
        never came back — so cluster accounting closes exactly.
        """
        while self.run_next() is not None:
            pass
        completed = 0
        failed_at_drain = 0
        leftover = 0
        for name in self._order:
            handle = self._replicas[name]
            if handle.available:
                report = handle.server.drain()
                completed += report.completed
                leftover += report.leftover_pending + report.in_flight
            else:
                failed_at_drain += len(handle.server.fail_pending(
                    f"replica {name} unavailable at drain"
                ))
                handle.server.admission.stop_admitting()
        return {
            "completed": completed,
            "failed_at_drain": failed_at_drain,
            "leftover": leftover,
        }
