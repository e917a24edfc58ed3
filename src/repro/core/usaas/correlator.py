"""Cross-signal correlation: do implicit and explicit feedback agree?

The correlator joins two signal series on their daily means and reports
Pearson correlation, optionally scanning a small lag window — explicit
feedback (social posts, ratings) often trails the network event that
implicit actions react to instantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.signals import SignalSeries
from repro.core.stats import pearson
from repro.errors import AnalysisError


@dataclass(frozen=True)
class CorrelationFinding:
    """Result of correlating two daily-mean series.

    Attributes:
        metric_a / metric_b: the two metrics involved.
        correlation: Pearson r at the best lag.
        best_lag_days: lag (of b relative to a) maximising |r|; positive
            means b trails a.
        n_days: overlapping days used.
    """

    metric_a: str
    metric_b: str
    correlation: float
    best_lag_days: int
    n_days: int

    @property
    def strength(self) -> str:
        r = abs(self.correlation)
        if r >= 0.7:
            return "strong"
        if r >= 0.4:
            return "moderate"
        if r >= 0.2:
            return "weak"
        return "negligible"


#: Day ordinals in order of first appearance and the mean of each day.
Daily = Tuple[np.ndarray, np.ndarray]


def correlate_series(
    a: SignalSeries,
    b: SignalSeries,
    metric_a: str,
    metric_b: str,
    max_lag_days: int = 3,
    min_overlap_days: int = 10,
) -> CorrelationFinding:
    """Correlate the daily means of two signal series over a lag window."""
    return correlate_daily(
        a.filter(metric=metric_a)._daily(),
        b.filter(metric=metric_b)._daily(),
        metric_a, metric_b, max_lag_days, min_overlap_days,
    )


def correlate_daily(
    a_daily: Daily,
    b_daily: Daily,
    metric_a: str,
    metric_b: str,
    max_lag_days: int = 3,
    min_overlap_days: int = 10,
) -> CorrelationFinding:
    """:func:`correlate_series` on daily means already taken (``SignalSeries._daily``).

    ``b``'s days are sorted once; each lag then pairs every day of
    ``a``, in ``a``'s order, with ``b``'s day ``lag`` later by binary
    search.  The finding is the lag of largest ``|r|`` (the earliest
    on a tie) among those with at least ``min_overlap_days`` pairs.
    """
    if max_lag_days < 0:
        raise AnalysisError("max_lag_days must be >= 0")
    if not len(a_daily[0]) or not len(b_daily[0]):
        raise AnalysisError(
            f"no data for {metric_a!r} or {metric_b!r}"
        )
    a_days, a_means = a_daily
    b_days, b_means = b_daily
    order = np.argsort(b_days)
    b_days, b_means = b_days[order], b_means[order]
    last = len(b_days) - 1
    best: Optional[CorrelationFinding] = None
    for lag in range(-max_lag_days, max_lag_days + 1):
        shifted = a_days + lag
        at = np.minimum(np.searchsorted(b_days, shifted), last)
        hit = b_days[at] == shifted
        xs, ys = a_means[hit], b_means[at[hit]]
        if len(xs) < min_overlap_days:
            continue
        r = pearson(xs, ys)
        if best is None or abs(r) > abs(best.correlation):
            best = CorrelationFinding(
                metric_a=metric_a,
                metric_b=metric_b,
                correlation=r,
                best_lag_days=lag,
                n_days=len(xs),
            )
    if best is None:
        raise AnalysisError(
            f"fewer than {min_overlap_days} overlapping days between "
            f"{metric_a!r} and {metric_b!r} at every lag"
        )
    return best
