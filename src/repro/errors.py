"""Exception hierarchy for the repro package.

Every error raised intentionally by the library derives from
:class:`ReproError` so callers can catch library failures without
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object failed validation."""


class SchemaError(ReproError):
    """A record violated the expected data schema."""


class SimulationError(ReproError):
    """A simulator reached an inconsistent internal state."""


class AnalysisError(ReproError):
    """An analysis pipeline received data it cannot process."""


class InsufficientRatingsError(ConfigError, AnalysisError):
    """A training corpus carried too few explicit ratings to fit on.

    Raised by the MOS-predictor fit paths *before* any linear algebra
    runs, so a mis-configured feedback funnel (``FeedbackModel.
    sample_rate=0``, zero respondents) surfaces as a typed, actionable
    error naming the rating count instead of a numpy ``LinAlgError``
    from a degenerate normal-equation solve.  It derives from both
    :class:`ConfigError` (the root cause is configuration — the CLI
    maps it to exit 2) and :class:`AnalysisError` (the historical type
    of insufficient-data failures, so existing callers keep working).
    """

    def __init__(self, n_rated: int, n_required: int) -> None:
        self.n_rated = int(n_rated)
        self.n_required = int(n_required)
        super().__init__(
            f"corpus has {self.n_rated} rated session(s); fitting needs "
            f"at least {self.n_required} — raise the feedback sample "
            f"rate (FeedbackModel.sample_rate / --mos-sample-rate) or "
            f"supply more rated data"
        )

    def __reduce__(self):
        return (InsufficientRatingsError, (self.n_rated, self.n_required))


class LedgerViolationError(ConfigError):
    """An exactly-once ledger failed to close: an outcome was lost or
    counted twice.

    Raised by the server's double-account guard and by the stream
    ledger check.  It is a bug, not load, so each soak command maps it
    to its documented accounting exit instead of a traceback.
    """


class QueryError(ReproError):
    """A USaaS query was malformed or referenced unknown signals."""


class ExtractionError(ReproError):
    """OCR or NLP extraction failed on the given input."""


class PrivacyError(ReproError):
    """An operation would have violated an aggregation/privacy floor."""


class LockTimeoutError(ReproError):
    """An advisory file lock could not be acquired within its budget."""


class QueryRejectedError(ReproError):
    """The serving layer refused to admit a query.

    Carries the machine-readable ``reason`` (``"queue_full"`` when the
    pending queue is at capacity and shedding policy rejected the query,
    ``"deadline_infeasible"`` when the remaining deadline budget cannot
    fit even one attempt, and ``"draining"`` when the server has stopped
    admitting) plus the query's priority class, so callers and tests can
    branch on *why* load was shed without parsing messages.
    """

    REASONS = ("queue_full", "deadline_infeasible", "draining")

    def __init__(self, reason: str, priority: str = "interactive",
                 detail: str = "") -> None:
        if reason not in self.REASONS:
            raise ValueError(f"unknown rejection reason {reason!r}")
        self.reason = reason
        self.priority = priority
        self.detail = detail
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"query rejected ({reason}, priority={priority}){suffix}"
        )

    def __reduce__(self):
        return (QueryRejectedError, (self.reason, self.priority, self.detail))


class DeadlineExceededError(ReproError):
    """An admitted query missed its deadline budget.

    Raised by the synchronous serving path when the answer arrived (or
    failed) only after the query's :class:`~repro.serving.Deadline`
    expired; the overrun is bounded by one attempt timeout because the
    executor clamps per-attempt budgets to the remaining deadline.
    """

    def __init__(self, budget_s: float, overrun_s: float) -> None:
        self.budget_s = float(budget_s)
        self.overrun_s = float(overrun_s)
        super().__init__(
            f"deadline of {self.budget_s:.3f}s exceeded by "
            f"{self.overrun_s:.3f}s"
        )

    def __reduce__(self):
        return (DeadlineExceededError, (self.budget_s, self.overrun_s))


class SourceUnavailableError(ReproError):
    """A signal source failed (raised, timed out) after all retries."""


class CircuitOpenError(SourceUnavailableError):
    """A circuit breaker is open: calls are being shed, not attempted."""


class DegradedServiceError(ReproError):
    """Too few signal sources survived to answer the query."""
