"""Record-at-a-time oracle for the Fig. 1 engagement curves.

This is the per-record loop :func:`repro.engagement.engagement_curve`
ran before it moved onto :class:`~repro.perf.columnar.ParticipantColumns`.
It lives here only so tests can pin the columnar curves
``tobytes``-equal against it; nothing in ``src/`` calls it, and no
columnar code runs inside it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.stats import BinnedCurve, bin_statistic
from repro.engagement.binning import _mask_sparse_bins
from repro.engagement.cohort import ConditionWindow
from repro.errors import AnalysisError
from repro.telemetry.schema import ParticipantRecord


def apply_windows(
    participants: Iterable[ParticipantRecord],
    windows: Iterable[ConditionWindow],
) -> List[ParticipantRecord]:
    """Keep sessions inside every window."""
    window_list = list(windows)
    return [
        p for p in participants
        if all(w.low <= p.metric(w.metric, w.stat) <= w.high
               for w in window_list)
    ]


def engagement_curve_records(
    participants: Iterable[ParticipantRecord],
    network_metric: str,
    engagement_metric: str,
    edges: Sequence[float],
    control_windows: Optional[Iterable[ConditionWindow]] = None,
    network_stat: str = "mean",
    statistic: str = "mean",
    min_bin_count: int = 1,
) -> BinnedCurve:
    keys: List[float] = []
    values: List[float] = []
    if control_windows is not None:
        pool = apply_windows(list(participants), control_windows)
    else:
        pool = participants
    if engagement_metric == "dropped_early":
        for p in pool:
            keys.append(p.metric(network_metric, network_stat))
            values.append(100.0 * float(p.dropped_early))
    else:
        for p in pool:
            keys.append(p.metric(network_metric, network_stat))
            values.append(getattr(p, engagement_metric))
    if not keys:
        raise AnalysisError(
            f"no sessions left for {network_metric} after control windows"
        )
    curve = bin_statistic(keys, values, edges, statistic=statistic)
    return _mask_sparse_bins(curve, min_bin_count)
