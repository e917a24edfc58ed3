"""The overload-safe serving facade in front of :class:`UsaasService`.

``UsaasService.answer()`` is a one-shot synchronous call; a deployment
that stakeholders actually query needs the discipline around it: bounded
admission, per-query deadline budgets, typed shedding, per-class
accounting and a graceful drain.  :class:`UsaasServer` provides exactly
that without touching the analysis path — admitted queries still run
through the existing ``answer()``.

Every submitted query is accounted for **exactly once** in one of five
terminal states:

* ``served`` — answered inside its deadline;
* ``served_degraded`` — answered inside its deadline, but from a
  degraded source set (failed/stale feeds);
* ``shed`` — refused with a typed
  :class:`~repro.errors.QueryRejectedError` (queue full, infeasible
  deadline, draining, or evicted by a higher-priority arrival);
* ``deadline_exceeded`` — admitted but the budget ran out (the overrun
  is bounded by one attempt timeout, because the executor clamps
  per-attempt budgets to the remaining deadline);
* ``failed`` — hard degradation
  (:class:`~repro.errors.DegradedServiceError`) inside the budget.

Time comes exclusively from the service's injected clock, so the whole
serving lifecycle is deterministic under a
:class:`~repro.resilience.clock.ManualClock`.

Beyond ``insights`` queries, a server constructed with a
:class:`~repro.prediction.service.PredictionEngine` also serves the
``predict_mos`` query kind: batch-class predictions are micro-batched
by a :class:`~repro.prediction.coalescer.PredictionCoalescer` in front
of the admission controller (one queue slot, one vectorized call per
batch; interactive predictions bypass it), and the engine's deadline
ladder falls back to the E-model prior rather than blowing a deadline.
Accounting is additionally tracked *per query kind*
(:meth:`UsaasServer.kind_counters`), and the exactly-once rule extends
unchanged: every member of a coalesced batch gets its own terminal
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import stats
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    DegradedServiceError,
    LedgerViolationError,
    QueryRejectedError,
)
from repro.io.tables import format_left_table
from repro.resilience.clock import Clock
from repro.serving.admission import (
    PRIORITY_CLASSES,
    AdmissionController,
    Ticket,
)
from repro.serving.deadline import Deadline

#: Terminal states a submitted query can end in.
OUTCOME_STATUSES: Tuple[str, ...] = (
    "served", "served_degraded", "shed", "deadline_exceeded", "failed",
)

#: A ledger's keys: submissions, then one count per terminal state.
LEDGER_KEYS: Tuple[str, ...] = ("submitted",) + OUTCOME_STATUSES


@dataclass(frozen=True)
class QueryOutcome:
    """The single terminal record for one submitted query."""

    ticket_id: int
    priority: str
    status: str
    latency_s: Optional[float] = None
    error: Optional[str] = None
    report: Any = None

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise ConfigError(f"unknown outcome status {self.status!r}")


def terminal_total(ledger: Mapping[str, int]) -> int:
    """Outcomes booked in ``ledger``: the sum of its terminal-state counts.

    A ledger maps ``submitted`` and each :data:`OUTCOME_STATUSES` entry
    to a count; it closes exactly once when this equals ``submitted``.
    """
    return sum(ledger[status] for status in OUTCOME_STATUSES)


@dataclass
class ClassCounters:
    """Per-priority-class serving counters (all monotonic)."""

    submitted: int = 0
    served: int = 0
    served_degraded: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    failed: int = 0
    latencies_s: List[float] = field(default_factory=list)

    def count(self, outcome: QueryOutcome) -> None:
        """Book one terminal outcome under its status."""
        setattr(self, outcome.status, getattr(self, outcome.status) + 1)
        if outcome.latency_s is not None:
            self.latencies_s.append(float(outcome.latency_s))

    def ledger(self) -> Dict[str, int]:
        """``submitted`` and each terminal state's count."""
        return {key: getattr(self, key) for key in LEDGER_KEYS}

    def as_dict(self) -> Dict[str, object]:
        """Stable JSON-ready form (latency list reduced to percentiles)."""
        return {
            **self.ledger(),
            "p50_latency_s": _percentile(self.latencies_s, 50),
            "p99_latency_s": _percentile(self.latencies_s, 99),
        }


def _percentile(values: List[float], q: float) -> Optional[float]:
    if not values:
        return None
    return round(stats.percentile(values, q), 9)


@dataclass(frozen=True)
class ServingMetrics:
    """Point-in-time snapshot of every class's counters."""

    per_class: Tuple[Tuple[str, ClassCounters], ...]

    def counters(self, priority: str) -> ClassCounters:
        for name, counters in self.per_class:
            if name == priority:
                return counters
        raise ConfigError(f"unknown priority {priority!r}")

    @property
    def submitted(self) -> int:
        return sum(c.submitted for _, c in self.per_class)

    @property
    def shed(self) -> int:
        return sum(c.shed for _, c in self.per_class)

    def totals(self) -> Dict[str, int]:
        """Every class's ledger summed into one."""
        return {
            key: sum(getattr(c, key) for _, c in self.per_class)
            for key in LEDGER_KEYS
        }

    def latencies(self) -> List[float]:
        out: List[float] = []
        for _, counters in self.per_class:
            out.extend(counters.latencies_s)
        return out

    def p50_latency_s(self) -> Optional[float]:
        return _percentile(self.latencies(), 50)

    def p99_latency_s(self) -> Optional[float]:
        return _percentile(self.latencies(), 99)

    def as_dict(self) -> Dict[str, object]:
        return {name: counters.as_dict() for name, counters in self.per_class}

    def table(self) -> str:
        """Fixed-width per-class counters table (CLI / log friendly)."""
        rows = []
        for name, c in self.per_class:
            p50, p99 = (_percentile(c.latencies_s, 50),
                        _percentile(c.latencies_s, 99))
            rows.append((
                name, *(str(n) for n in c.ledger().values()),
                "-" if p50 is None else f"{p50:.3f}s",
                "-" if p99 is None else f"{p99:.3f}s",
            ))
        return format_left_table(
            ("class", "submitted", "served", "degraded", "shed",
             "deadline", "failed", "p50", "p99"),
            rows,
        )


@dataclass(frozen=True)
class DrainReport:
    """What :meth:`UsaasServer.drain` finished and what was left over."""

    completed: int
    leftover_pending: int
    in_flight: int

    @property
    def clean(self) -> bool:
        return self.leftover_pending == 0 and self.in_flight == 0

    def summary(self) -> str:
        return (f"drain: {self.completed} completed, "
                f"{self.leftover_pending} leftover pending, "
                f"{self.in_flight} in flight")


class UsaasServer:
    """Admission + deadlines + accounting around ``UsaasService.answer``.

    The server shares the service's injected clock; with a
    :class:`~repro.resilience.clock.ManualClock` the entire serving
    lifecycle — arrivals, backoff, deadline expiry, drain — is exactly
    reproducible, which is what the soak harness asserts.
    """

    def __init__(
        self,
        service,
        max_pending: int = 16,
        max_concurrent: int = 1,
        shed_policy: str = "priority",
        default_deadline_s: Optional[float] = None,
        min_feasible_s: Optional[float] = None,
        prediction=None,
        coalescer=None,
    ) -> None:
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ConfigError("default_deadline_s must be positive")
        self._service = service
        self._clock: Clock = service.executor.clock
        if min_feasible_s is None:
            # An admitted query needs room for at least one attempt.
            timeout = service.executor.config.retry.attempt_timeout_s
            min_feasible_s = float(timeout) if timeout is not None else 0.0
        self.admission = AdmissionController(
            max_pending=max_pending,
            max_concurrent=max_concurrent,
            shed_policy=shed_policy,
            min_feasible_s=min_feasible_s,
        )
        self.default_deadline_s = default_deadline_s
        self.prediction = prediction
        self.coalescer = None
        if coalescer is not None:
            if prediction is None:
                raise ConfigError(
                    "a coalescer needs a prediction engine to flush into; "
                    "pass prediction= as well"
                )
            # Function-level import: repro.prediction imports the serving
            # package for Deadline/soak plumbing, so the server must not
            # import it at module load.
            from repro.prediction.coalescer import (
                CoalescerConfig, PredictionCoalescer,
            )
            if not isinstance(coalescer, CoalescerConfig):
                raise ConfigError(
                    "coalescer must be a prediction.CoalescerConfig"
                )
            self.coalescer = PredictionCoalescer(coalescer)
        self.outcomes: Dict[int, QueryOutcome] = {}
        self._counters: Dict[str, ClassCounters] = {
            name: ClassCounters() for name in PRIORITY_CLASSES
        }
        self._kind_counters: Dict[str, ClassCounters] = {}
        self._kind_of: Dict[int, str] = {}
        self._groups: Dict[int, Tuple[Ticket, ...]] = {}
        self._next_id = 0
        self._draining = False

    @property
    def service(self):
        return self._service

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def draining(self) -> bool:
        return self._draining

    def has_pending(self) -> bool:
        if self.admission.has_pending():
            return True
        return (
            self.coalescer is not None
            and self.coalescer.due(self._clock.now())
        )

    # -- accounting -------------------------------------------------------

    def metrics(self) -> ServingMetrics:
        return ServingMetrics(per_class=tuple(
            (name, self._counters[name]) for name in PRIORITY_CLASSES
        ))

    def kind_counters(self, kind: str) -> ClassCounters:
        """Counters for one query kind (``insights`` / ``predict_mos``)."""
        return self._kind_counters.setdefault(kind, ClassCounters())

    def _record(self, outcome: QueryOutcome) -> QueryOutcome:
        if outcome.ticket_id in self.outcomes:
            raise LedgerViolationError(
                f"ticket {outcome.ticket_id} already has an outcome; "
                f"every query must be accounted exactly once"
            )
        self.outcomes[outcome.ticket_id] = outcome
        kind = self._kind_of.get(outcome.ticket_id, "insights")
        self._counters[outcome.priority].count(outcome)
        self.kind_counters(kind).count(outcome)
        return outcome

    # -- submission -------------------------------------------------------

    def submit(
        self,
        query,
        priority: str = "interactive",
        deadline_s: Optional[float] = None,
    ) -> Ticket:
        """Admit a query or shed it with :class:`QueryRejectedError`.

        A rejected query is still *accounted*: it gets a ``shed``
        outcome before the typed error propagates.  Evicted lower-
        priority queries (``shed_policy="priority"``/``"lifo"``) get
        their own ``shed`` outcomes at the same moment.

        ``predict_mos`` queries require a prediction engine; with a
        coalescer configured, non-interactive predictions are buffered
        for micro-batching instead of entering the queue individually
        (the returned ticket is live either way).
        """
        if priority not in PRIORITY_CLASSES:
            raise ConfigError(
                f"unknown priority {priority!r}; "
                f"expected one of {PRIORITY_CLASSES}"
            )
        kind = getattr(query, "kind", "insights") or "insights"
        if kind == "predict_mos":
            if self.prediction is None:
                raise ConfigError(
                    "predict_mos query needs a prediction engine; "
                    "construct UsaasServer(prediction=...)"
                )
            # Validate rows against the bound block *before* minting a
            # ticket: a malformed query is a caller bug, not shed load.
            self.prediction.check_rows(getattr(query, "rows", None))
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        deadline = (
            Deadline.start(self._clock, budget) if budget is not None else None
        )
        ticket = Ticket(
            id=self._next_id,
            query=query,
            priority=priority,
            submitted_at=self._clock.now(),
            deadline=deadline,
        )
        self._next_id += 1
        self._counters[priority].submitted += 1
        self._kind_of[ticket.id] = kind
        self.kind_counters(kind).submitted += 1
        if (
            kind == "predict_mos"
            and self.coalescer is not None
            and priority != "interactive"
            and not self._draining
        ):
            # Hopeless deadlines shed now, exactly as try_admit would.
            if deadline is not None and (
                deadline.remaining() <= self.admission.min_feasible_s
            ):
                exc = QueryRejectedError(
                    "deadline_infeasible", priority,
                    f"{deadline.remaining():.3f}s remaining < "
                    f"{self.admission.min_feasible_s:.3f}s minimum feasible",
                )
                self._record(QueryOutcome(
                    ticket_id=ticket.id, priority=priority, status="shed",
                    error=f"{type(exc).__name__}: {exc}",
                ))
                raise exc
            self.coalescer.add(ticket, self._clock.now())
            self._flush_due()
            return ticket
        try:
            evicted = self.admission.try_admit(ticket)
        except QueryRejectedError as exc:
            self._record(QueryOutcome(
                ticket_id=ticket.id, priority=priority, status="shed",
                error=f"{type(exc).__name__}: {exc}",
            ))
            raise
        for victim in evicted:
            self._shed_ticket(
                victim, f"evicted by higher-priority ticket {ticket.id}"
            )
        return ticket

    def _shed_ticket(self, victim: Ticket, detail: str) -> None:
        """Shed one evicted ticket — expanded to members for a batch."""
        members = self._groups.pop(victim.id, None) or (victim,)
        for m in members:
            error = QueryRejectedError("queue_full", m.priority, detail)
            self._record(QueryOutcome(
                ticket_id=m.id, priority=m.priority, status="shed",
                error=f"{type(error).__name__}: {error}",
            ))

    # -- execution --------------------------------------------------------

    def _flush_due(self, force: bool = False) -> None:
        """Move due (or, when forced, all) coalesced batches into the queue."""
        if self.coalescer is None:
            return
        if force:
            batches = self.coalescer.flush_all()
        else:
            batches = self.coalescer.flush_due(self._clock.now())
        for members in batches:
            self._admit_group(members)

    def _admit_group(self, members) -> None:
        """Admit one flushed batch as a single internal group ticket.

        The group ticket occupies one queue slot and is never itself
        accounted — only its members get outcomes.  Members whose
        deadline became infeasible while buffered are shed here, with
        the same typed reason admission would have used.
        """
        now = self._clock.now()
        live = []
        for m in members:
            if m.deadline is not None and (
                m.deadline.remaining() <= self.admission.min_feasible_s
            ):
                error = QueryRejectedError(
                    "deadline_infeasible", m.priority,
                    "deadline lapsed while coalescing",
                )
                self._record(QueryOutcome(
                    ticket_id=m.id, priority=m.priority, status="shed",
                    latency_s=now - m.submitted_at,
                    error=f"{type(error).__name__}: {error}",
                ))
            else:
                live.append(m)
        if not live:
            return
        deadline = None
        for m in live:
            if m.deadline is not None and (
                deadline is None
                or m.deadline.expires_at < deadline.expires_at
            ):
                deadline = m.deadline
        group = Ticket(
            id=self._next_id,
            query=live[0].query,
            priority=live[0].priority,
            submitted_at=live[0].submitted_at,
            deadline=deadline,
        )
        self._next_id += 1
        self._groups[group.id] = tuple(live)
        try:
            evicted = self.admission.try_admit(group)
        except QueryRejectedError as exc:
            for m in self._groups.pop(group.id):
                error = QueryRejectedError(exc.reason, m.priority, exc.detail)
                self._record(QueryOutcome(
                    ticket_id=m.id, priority=m.priority, status="shed",
                    error=f"{type(error).__name__}: {error}",
                ))
            return
        for victim in evicted:
            self._shed_ticket(
                victim, f"evicted by higher-priority ticket {group.id}"
            )

    def run_next(self) -> Optional[QueryOutcome]:
        """Execute the highest-priority pending query (None if idle).

        For a coalesced prediction batch, every member is executed and
        recorded in one vectorized call; the last member's outcome is
        returned.
        """
        self._flush_due()
        ticket = self.admission.next_ticket()
        if ticket is None:
            return None
        members = self._groups.pop(ticket.id, None)
        try:
            if members is not None or (
                self._kind_of.get(ticket.id) == "predict_mos"
            ):
                outcomes = self._execute_prediction(
                    ticket, members if members is not None else (ticket,)
                )
                result = outcomes[-1] if outcomes else None
            else:
                result = self._record(self._execute(ticket))
        finally:
            self.admission.release(ticket)
        return result

    def run_pending(self, limit: Optional[int] = None) -> List[QueryOutcome]:
        """Run queued queries until the queue is empty (or ``limit``)."""
        outcomes: List[QueryOutcome] = []
        while limit is None or len(outcomes) < limit:
            outcome = self.run_next()
            if outcome is None:
                break
            outcomes.append(outcome)
        return outcomes

    def _execute(self, ticket: Ticket) -> QueryOutcome:
        deadline = ticket.deadline
        if deadline is not None and deadline.expired():
            # Sat in the queue past its budget: never start the answer.
            return QueryOutcome(
                ticket_id=ticket.id, priority=ticket.priority,
                status="deadline_exceeded",
                latency_s=self._clock.now() - ticket.submitted_at,
                error=(f"DeadlineExceededError: expired in queue "
                       f"({deadline.overrun():.3f}s over budget)"),
            )
        try:
            report = self._service.answer(ticket.query, deadline=deadline)
        except DegradedServiceError as exc:
            latency = self._clock.now() - ticket.submitted_at
            if deadline is not None and deadline.expired():
                status, error = "deadline_exceeded", (
                    f"DeadlineExceededError: budget spent retrying "
                    f"({type(exc).__name__}: {exc})"
                )
            else:
                status, error = "failed", f"{type(exc).__name__}: {exc}"
            return QueryOutcome(
                ticket_id=ticket.id, priority=ticket.priority,
                status=status, latency_s=latency, error=error,
            )
        latency = self._clock.now() - ticket.submitted_at
        if deadline is not None and deadline.expired():
            return QueryOutcome(
                ticket_id=ticket.id, priority=ticket.priority,
                status="deadline_exceeded", latency_s=latency,
                error=(f"DeadlineExceededError: answer arrived "
                       f"{deadline.overrun():.3f}s late"),
                report=report,
            )
        status = "served_degraded" if report.degraded else "served"
        return QueryOutcome(
            ticket_id=ticket.id, priority=ticket.priority,
            status=status, latency_s=latency, report=report,
        )

    def _execute_prediction(
        self, ticket: Ticket, members: Tuple[Ticket, ...]
    ) -> List[QueryOutcome]:
        """One vectorized prediction call for a batch (or solo ticket).

        Members whose deadline expired while queued are *shed* without
        running — an answer nobody can use is not worth a batch of
        compute, and shedding keeps the ladder's promise that an
        answered prediction never overruns its deadline by more than
        one batch cost.  The rest share one
        :meth:`PredictionEngine.predict_rows` call whose deadline is the
        earliest-expiring member's.  A degraded (E-model fallback)
        answer is recorded ``served_degraded`` even if the budget lapsed
        mid-fallback — by construction the overrun is bounded by one
        fallback batch cost, which beats not answering at all.
        """
        from repro.prediction.service import MosPredictionAnswer

        engine = self.prediction
        outcomes: List[QueryOutcome] = []
        live: List[Ticket] = []
        for m in members:
            if m.deadline is not None and m.deadline.expired():
                outcomes.append(self._record(QueryOutcome(
                    ticket_id=m.id, priority=m.priority,
                    status="shed",
                    latency_s=self._clock.now() - m.submitted_at,
                    error=(f"QueryRejectedError: deadline expired in "
                           f"queue ({m.deadline.overrun():.3f}s over "
                           f"budget); shed unanswered"),
                )))
            else:
                live.append(m)
        if not live:
            return outcomes
        row_sets = [
            engine.check_rows(getattr(m.query, "rows", None)) for m in live
        ]
        lengths = [len(r) for r in row_sets]
        rows = np.concatenate(row_sets) if len(row_sets) > 1 else row_sets[0]
        deadline = None
        for m in live:
            if m.deadline is not None and (
                deadline is None
                or m.deadline.expires_at < deadline.expires_at
            ):
                deadline = m.deadline
        answer = engine.predict_rows(
            rows, deadline=deadline, coalesced=len(live)
        )
        offset = 0
        for m, n in zip(live, lengths):
            report = MosPredictionAnswer(
                predictions=answer.predictions[offset:offset + n],
                rows=answer.rows[offset:offset + n],
                model=answer.model,
                degraded=answer.degraded,
                batch_rows=answer.batch_rows,
                coalesced=answer.coalesced,
            )
            offset += n
            latency = self._clock.now() - m.submitted_at
            if answer.degraded:
                status, error = "served_degraded", None
            elif m.deadline is not None and m.deadline.expired():
                status = "deadline_exceeded"
                error = (f"DeadlineExceededError: answer arrived "
                         f"{m.deadline.overrun():.3f}s late")
            else:
                status, error = "served", None
            outcomes.append(self._record(QueryOutcome(
                ticket_id=m.id, priority=m.priority, status=status,
                latency_s=latency, error=error, report=report,
            )))
        return outcomes

    # -- the synchronous convenience path ---------------------------------

    def serve(
        self,
        query,
        priority: str = "interactive",
        deadline_s: Optional[float] = None,
    ):
        """Submit + run to completion; the serving analogue of ``answer``.

        Raises:
            QueryRejectedError: the query was shed at admission.
            DeadlineExceededError: admitted but the budget ran out.
            DegradedServiceError: hard degradation inside the budget.
        """
        ticket = self.submit(query, priority=priority, deadline_s=deadline_s)
        while ticket.id not in self.outcomes:
            if self.run_next() is None:
                if self.coalescer is not None and self.coalescer.has_entries():
                    # The synchronous path cannot wait out max_delay_s:
                    # flush whatever is buffered and keep running.
                    self._flush_due(force=True)
                    continue
                raise ConfigError(
                    f"ticket {ticket.id} is stuck: queue idle but no outcome"
                )
        outcome = self.outcomes[ticket.id]
        if outcome.status in ("served", "served_degraded"):
            return outcome.report
        if outcome.status == "deadline_exceeded":
            budget = ticket.deadline.budget_s if ticket.deadline else 0.0
            overrun = ticket.deadline.overrun() if ticket.deadline else 0.0
            raise DeadlineExceededError(budget, overrun)
        raise DegradedServiceError(outcome.error or "hard degradation")

    def fail_pending(self, error: str) -> List[QueryOutcome]:
        """Terminate every queued query as ``failed`` (replica crash).

        When the process holding the queue dies, the queued work dies
        with it; each ticket still gets its exactly-once terminal
        outcome so cluster-wide accounting stays closed.
        """
        outcomes: List[QueryOutcome] = []
        doomed: List[Ticket] = []
        for ticket in self.admission.evict_pending():
            members = self._groups.pop(ticket.id, None)
            doomed.extend(members if members is not None else (ticket,))
        if self.coalescer is not None:
            for batch in self.coalescer.flush_all():
                doomed.extend(batch)
        for ticket in doomed:
            outcomes.append(self._record(QueryOutcome(
                ticket_id=ticket.id, priority=ticket.priority,
                status="failed",
                latency_s=self._clock.now() - ticket.submitted_at,
                error=f"QueryFailedError: {error}",
            )))
        return outcomes

    # -- drain ------------------------------------------------------------

    def drain(self) -> DrainReport:
        """Stop admitting, finish everything queued, report leftovers."""
        self._draining = True
        # Buffered predictions must reach the queue before admission
        # closes; they were accepted, so they still get answers.
        self._flush_due(force=True)
        self.admission.stop_admitting()
        completed = len(self.run_pending())
        return DrainReport(
            completed=completed,
            leftover_pending=self.admission.pending_count(),
            in_flight=self.admission.in_flight_count,
        )
