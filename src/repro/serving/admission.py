"""Admission control: bounded queueing with priority-aware shedding.

Overloaded crowdsourced-measurement front-ends fail in one of two ways:
they queue without bound until every answer is uselessly late, or they
fall over.  The :class:`AdmissionController` does neither — it holds a
bounded pending queue split by priority class and a concurrency limit,
and it *sheds* excess load with a typed, picklable
:class:`~repro.errors.QueryRejectedError` so callers always learn
immediately whether their query is in the system.

Three priority classes exist, ranked ``interactive`` > ``batch`` >
``monitoring``.  Under sustained overload the shedding policy decides
who loses:

* ``"reject"`` — the incoming query is refused (head-of-line FIFO);
* ``"lifo"`` — the *newest* pending query is evicted and the incoming
  one admitted (freshest-first, the classic overload trick: under a
  burst the oldest queued entries are the ones whose deadlines are
  already hopeless);
* ``"priority"`` — the newest pending query of the *lowest* class
  strictly below the incoming query's class is evicted; if no lower
  class has pending entries the incoming query is refused.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, QueryRejectedError
from repro.serving.deadline import Deadline

#: Priority classes, highest urgency first.
PRIORITY_CLASSES: Tuple[str, ...] = ("interactive", "batch", "monitoring")

_RANK: Dict[str, int] = {name: i for i, name in enumerate(PRIORITY_CLASSES)}

SHED_POLICIES: Tuple[str, ...] = ("reject", "lifo", "priority")


@dataclass(frozen=True)
class Ticket:
    """One admitted (or rejected) query's identity in the serving layer."""

    id: int
    query: Any
    priority: str
    submitted_at: float
    deadline: Optional[Deadline] = None

    @property
    def rank(self) -> int:
        return _RANK[self.priority]


class AdmissionController:
    """Bounded pending queue + concurrency limiter with priority classes.

    The controller never runs queries — it only decides *admission*:
    :meth:`try_admit` either enqueues a ticket (possibly evicting a
    lower-priority one, returned to the caller for accounting) or raises
    :class:`QueryRejectedError`; :meth:`next_ticket` hands the highest-
    priority pending ticket to the execution layer while respecting
    ``max_concurrent``; :meth:`release` returns capacity.
    """

    def __init__(
        self,
        max_pending: int = 16,
        max_concurrent: int = 1,
        shed_policy: str = "priority",
        min_feasible_s: float = 0.0,
    ) -> None:
        if max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        if max_concurrent < 1:
            raise ConfigError("max_concurrent must be >= 1")
        if shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if min_feasible_s < 0:
            raise ConfigError("min_feasible_s must be non-negative")
        self.max_pending = int(max_pending)
        self.max_concurrent = int(max_concurrent)
        self.shed_policy = shed_policy
        self.min_feasible_s = float(min_feasible_s)
        self._pending: Dict[str, Deque[Ticket]] = {
            name: deque() for name in PRIORITY_CLASSES
        }
        # Admission sequence per pending ticket: shedding tie-breaks are
        # decided by *insertion order*, never by ticket id, so "newest"
        # stays deterministic even when callers mint ids out of order.
        self._admitted_seq: Dict[int, int] = {}
        self._seq = 0
        self._in_flight: set = set()
        self._admitting = True

    # -- introspection ----------------------------------------------------

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def pending_count(self, priority: Optional[str] = None) -> int:
        if priority is not None:
            return len(self._pending[priority])
        return sum(len(q) for q in self._pending.values())

    def has_pending(self) -> bool:
        return any(self._pending.values())

    def has_capacity(self) -> bool:
        return len(self._in_flight) < self.max_concurrent

    # -- admission --------------------------------------------------------

    def stop_admitting(self) -> None:
        """Drain mode: every future :meth:`try_admit` sheds."""
        self._admitting = False

    def try_admit(self, ticket: Ticket) -> Tuple[Ticket, ...]:
        """Enqueue ``ticket`` or raise :class:`QueryRejectedError`.

        Returns the tickets *evicted* to make room (empty in the common
        case) so the caller can account for them exactly once.
        """
        if ticket.priority not in _RANK:
            raise ConfigError(
                f"unknown priority {ticket.priority!r}; "
                f"expected one of {PRIORITY_CLASSES}"
            )
        if not self._admitting:
            raise QueryRejectedError(
                "draining", ticket.priority, "server is draining"
            )
        if ticket.deadline is not None:
            remaining = ticket.deadline.remaining()
            if remaining <= self.min_feasible_s:
                raise QueryRejectedError(
                    "deadline_infeasible", ticket.priority,
                    f"{remaining:.3f}s remaining < "
                    f"{self.min_feasible_s:.3f}s minimum feasible",
                )
        evicted: List[Ticket] = []
        if self.pending_count() >= self.max_pending:
            victim = self._pick_victim(ticket)
            if victim is None:
                raise QueryRejectedError(
                    "queue_full", ticket.priority,
                    f"{self.pending_count()} pending "
                    f"(max {self.max_pending})",
                )
            self._pending[victim.priority].remove(victim)
            self._admitted_seq.pop(victim.id, None)
            evicted.append(victim)
        self._pending[ticket.priority].append(ticket)
        self._admitted_seq[ticket.id] = self._seq
        self._seq += 1
        return tuple(evicted)

    def _pick_victim(self, incoming: Ticket) -> Optional[Ticket]:
        """Who gets shed when the queue is full (None = reject incoming).

        Tie-breaks are deterministic: within a class the queue is FIFO
        in admission order, and "newest" always means the most recently
        *admitted* ticket (``self._admitted_seq``), which is stable
        across reruns by construction.
        """
        if self.shed_policy == "reject":
            return None
        if self.shed_policy == "lifo":
            newest: Optional[Ticket] = None
            for queue in self._pending.values():
                if queue and (
                    newest is None
                    or self._admitted_seq[queue[-1].id]
                    > self._admitted_seq[newest.id]
                ):
                    newest = queue[-1]
            return newest
        # "priority": evict the newest entry of the lowest class strictly
        # below the incoming query's class.
        for name in reversed(PRIORITY_CLASSES):
            if _RANK[name] <= incoming.rank:
                break
            if self._pending[name]:
                return self._pending[name][-1]
        return None

    # -- execution handoff ------------------------------------------------

    def next_ticket(self) -> Optional[Ticket]:
        """Highest-priority pending ticket, or None (empty / saturated)."""
        if not self.has_capacity():
            return None
        for name in PRIORITY_CLASSES:
            if self._pending[name]:
                ticket = self._pending[name].popleft()
                self._admitted_seq.pop(ticket.id, None)
                self._in_flight.add(ticket.id)
                return ticket
        return None

    def release(self, ticket: Ticket) -> None:
        if ticket.id not in self._in_flight:
            raise ConfigError(
                f"ticket {ticket.id} is not in flight"
            )
        self._in_flight.discard(ticket.id)
