"""Deterministic overload soak for the prediction serving path.

Drives a coalescer-equipped :class:`~repro.serving.server.UsaasServer`
with a seeded arrival schedule of ``predict_mos`` queries on a
:class:`~repro.resilience.clock.ManualClock`, then closes the books:
every submitted prediction must land in exactly one terminal state, and
any query that carried a deadline and was *answered* must have overrun
it by at most one batch cost (the degradation ladder's invariant).

The arrivals run through the serving soak's replay loop
(:func:`repro.serving.soak.replay`), which advances an idle clock in
steps no larger than half the coalescer's ``max_delay_s``, so age-due
flushes happen promptly — mirroring a real server's timer wheel
without giving the coalescer a clock of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.usaas.query import UsaasQuery
from repro.errors import ConfigError
from repro.perf.columnar import ParticipantColumns
from repro.prediction.coalescer import CoalescerConfig
from repro.prediction.model import ColumnarMosPredictor
from repro.prediction.service import PredictionCostModel, PredictionEngine
from repro.resilience.clock import ManualClock
from repro.resilience.faults import Arrival, FaultPlan
from repro.serving.server import DrainReport, UsaasServer, terminal_total
from repro.serving.soak import replay, synthetic_soak_service
from repro.verdict import Verdict


@dataclass(frozen=True)
class PredictionSoakReport:
    """Closed-books summary of one prediction soak."""

    arrivals: int
    submitted: int
    served: int
    served_degraded: int
    shed: int
    deadline_exceeded: int
    failed: int
    batches: int
    fallback_batches: int
    mean_coalesced: float
    p50_latency_s: Optional[float]
    p99_latency_s: Optional[float]
    max_overrun_s: float
    #: The ladder's overrun bound: the cost of one full coalesced batch.
    one_batch_s: float
    drain: DrainReport
    final_clock_s: float

    @property
    def accounted(self) -> bool:
        """Exactly-once: every submission reached one terminal state."""
        return self.submitted == terminal_total(self.counters_dict())

    def verdict(self) -> Verdict:
        """Exit 3 on open books, a blown deadline, or an answer that
        overran its budget by more than one batch cost."""
        if not self.accounted:
            return Verdict(3, (
                "accounting violation: submitted != sum(terminal states) "
                "for predict_mos",
            ))
        if self.deadline_exceeded:
            return Verdict(3, (
                f"deadline violation: {self.deadline_exceeded} "
                f"prediction(s) answered past their budget",
            ))
        if self.max_overrun_s > self.one_batch_s:
            return Verdict(3, (
                f"deadline violation: answered {self.max_overrun_s:.4f}s "
                f"over budget (> one batch cost {self.one_batch_s:.4f}s)",
            ))
        return Verdict()

    def counters_dict(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            "submitted": self.submitted,
            "served": self.served,
            "served_degraded": self.served_degraded,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "batches": self.batches,
            "fallback_batches": self.fallback_batches,
            "mean_coalesced": round(self.mean_coalesced, 6),
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "max_overrun_s": round(self.max_overrun_s, 9),
            "final_clock_s": round(self.final_clock_s, 6),
        }

    def summary(self) -> str:
        return (
            f"prediction soak: {self.submitted} submitted, "
            f"{self.served} served, {self.served_degraded} degraded, "
            f"{self.shed} shed, {self.deadline_exceeded} deadline, "
            f"{self.failed} failed over {self.batches} batch(es) "
            f"({self.fallback_batches} fallback)"
        )


def synthetic_prediction_server(
    columns: ParticipantColumns,
    model: ColumnarMosPredictor,
    seed: int = 0,
    cost_model: Optional[PredictionCostModel] = None,
    coalescer: Optional[CoalescerConfig] = None,
    max_pending: int = 8,
    shed_policy: str = "priority",
    min_feasible_s: Optional[float] = None,
) -> Tuple[UsaasServer, FaultPlan, PredictionEngine]:
    """A clock-charged prediction server on a fresh ``ManualClock``.

    The underlying :func:`~repro.serving.soak.synthetic_soak_service`
    provides the clock and executor plumbing; the engine charges its
    modelled batch cost to that clock (``charge_clock=True``) so
    deadline pressure is real and byte-reproducible.  ``min_feasible_s``
    defaults to the cost of a single-row *fallback* batch: a deadline
    that cannot fit even that is shed at admission as infeasible
    instead of being answered hopelessly late.
    """
    plan = FaultPlan(seed=seed, clock=ManualClock())
    service = synthetic_soak_service(plan)
    cost_model = cost_model or PredictionCostModel()
    engine = PredictionEngine(
        model, columns, clock=plan.clock,
        cost_model=cost_model, charge_clock=True,
    )
    if min_feasible_s is None:
        min_feasible_s = cost_model.fallback_cost_s(1)
    server = UsaasServer(
        service,
        max_pending=max_pending,
        shed_policy=shed_policy,
        min_feasible_s=min_feasible_s,
        prediction=engine,
        coalescer=coalescer or CoalescerConfig(),
    )
    return server, plan, engine


def run_prediction_soak(
    server: UsaasServer,
    arrivals: Sequence[Arrival],
    rows_for: Optional[
        Callable[[Arrival, int], Optional[Tuple[int, ...]]]
    ] = None,
    network: str = "synthetic",
) -> PredictionSoakReport:
    """Feed ``arrivals`` as ``predict_mos`` queries and close the books.

    ``rows_for(arrival, index)`` chooses each query's row subset (None
    = every row of the engine's block), ``index`` counting arrivals in
    time order; it must be a pure function of its arguments so the soak
    stays deterministic.
    """
    if server.prediction is None:
        raise ConfigError("prediction soak requires a prediction engine")
    index = itertools.count()

    def query_for(arrival: Arrival) -> UsaasQuery:
        rows = rows_for(arrival, next(index)) if rows_for else None
        return UsaasQuery(network=network, kind="predict_mos", rows=rows)

    admitted, drain = replay(server, arrivals, query_for)
    max_overrun = 0.0
    for arrival, ticket in admitted:
        outcome = server.outcomes.get(ticket.id)
        if (
            arrival.deadline_s is not None
            and outcome is not None
            and outcome.latency_s is not None
            and outcome.status in ("served", "served_degraded")
        ):
            max_overrun = max(
                max_overrun, outcome.latency_s - float(arrival.deadline_s)
            )
    engine = server.prediction
    max_batch = (
        server.coalescer.config.max_batch if server.coalescer else 1
    )
    engine_metrics = engine.metrics()
    counters = server.kind_counters("predict_mos")
    latency = counters.as_dict()
    return PredictionSoakReport(
        arrivals=len(arrivals),
        **counters.ledger(),
        batches=int(engine_metrics["batches"]),
        fallback_batches=int(engine_metrics["fallback_batches"]),
        mean_coalesced=float(engine_metrics["mean_coalesced"]),
        p50_latency_s=latency["p50_latency_s"],
        p99_latency_s=latency["p99_latency_s"],
        max_overrun_s=max_overrun,
        one_batch_s=engine.cost_model.batch_cost_s(
            max_batch * engine.n_rows
        ),
        drain=drain,
        final_clock_s=server.clock.now(),
    )
