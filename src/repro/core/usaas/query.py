"""The USaaS query surface.

§5: *"The queries could take as input the network/service under
consideration, network performance metrics and possible user actions of
interest, application QoE metrics, etc."*
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import QueryError

#: Supported query kinds: ``insights`` is §5's level/correlation/anomaly
#: answer (served by :meth:`UsaasService.answer`); ``predict_mos`` asks
#: for per-session MOS predictions and is served by a
#: :class:`~repro.serving.server.UsaasServer` carrying a prediction
#: engine (optionally micro-batched).
QUERY_KINDS: Tuple[str, ...] = ("insights", "predict_mos")


@dataclass(frozen=True)
class UsaasQuery:
    """One stakeholder question.

    Attributes:
        network: the access network of interest (e.g. ``"starlink"``).
        service: the networked service, or None for network-wide signals.
        implicit_metrics: user-action metrics to pull (e.g. ``presence``).
        explicit_metrics: volunteered-feedback metrics (e.g.
            ``sentiment_polarity``, ``rating``).
        start / end: time range; None means unbounded.
        min_users: privacy floor override (None uses the service default).
        breakdown: optional signal attribute (e.g. ``"platform"``,
            ``"country"``) to split level insights by — §5's "deep
            insights" knob.
        kind: which query family this is (:data:`QUERY_KINDS`).
        rows: for ``predict_mos`` only — session row indices into the
            serving engine's columnar block (None = every session).
    """

    network: str
    service: Optional[str] = None
    implicit_metrics: Tuple[str, ...] = ("presence", "cam_on", "mic_on")
    explicit_metrics: Tuple[str, ...] = ("sentiment_polarity",)
    start: Optional[dt.datetime] = None
    end: Optional[dt.datetime] = None
    min_users: Optional[int] = None
    breakdown: Optional[str] = None
    kind: str = "insights"
    rows: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.network:
            raise QueryError("query requires a network")
        if self.kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {self.kind!r}; "
                f"expected one of {QUERY_KINDS}"
            )
        if self.rows is not None:
            if self.kind != "predict_mos":
                raise QueryError(
                    "rows apply only to predict_mos queries"
                )
            rows = tuple(int(r) for r in self.rows)
            if not rows:
                raise QueryError(
                    "predict_mos rows must be non-empty (None = all)"
                )
            if any(r < 0 for r in rows):
                raise QueryError("predict_mos rows must be non-negative")
            object.__setattr__(self, "rows", rows)
        # Tuples keep the query hashable: answers are memoized on it.
        for name in ("implicit_metrics", "explicit_metrics"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.implicit_metrics and not self.explicit_metrics:
            raise QueryError("query must request at least one metric")
        if self.start is not None and self.end is not None:
            start_aware = self.start.tzinfo is not None
            end_aware = self.end.tzinfo is not None
            if start_aware != end_aware:
                raise QueryError(
                    "query start/end mix a tz-aware and a tz-naive "
                    "datetime; make both aware (attach tzinfo) or both "
                    "naive"
                )
            if self.end < self.start:
                raise QueryError("query end precedes start")
        if self.min_users is not None and self.min_users < 1:
            raise QueryError("min_users must be >= 1")
