"""Engagement-vs-condition binning: the Fig. 1 primitive.

Both entry points run on a :class:`~repro.perf.columnar.ParticipantColumns`
block.  They accept whatever :func:`~repro.perf.columnar.participant_columns`
accepts — a :class:`~repro.telemetry.store.CallDataset`, a prebuilt block,
or an iterable of participant records — and are float-for-float
identical to the record-at-a-time loop kept as a test oracle
(``tests/perf/test_columnar.py``).  :func:`curve_matrix` covers a whole
Fig. 1-style grid: each network metric is binned once and every
engagement column is reduced against that one grouping.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.stats import BinnedCurve, bin_grouping, bin_statistic
from repro.engagement.cohort import ConditionWindow
from repro.errors import AnalysisError
from repro.perf.columnar import ParticipantSource, participant_columns
from repro.telemetry.schema import ENGAGEMENT_METRICS, NETWORK_METRICS


def _mask_sparse_bins(curve: BinnedCurve, min_bin_count: int) -> BinnedCurve:
    """NaN out bins with fewer than ``min_bin_count`` samples."""
    if min_bin_count <= 1:
        return curve
    stat = curve.stat.copy()
    stat[curve.counts < min_bin_count] = np.nan
    return BinnedCurve(
        edges=curve.edges, centers=curve.centers,
        stat=stat, counts=curve.counts,
    )


def engagement_curve(
    participants: ParticipantSource,
    network_metric: str,
    engagement_metric: str,
    edges: Sequence[float],
    control_windows: Optional[Iterable[ConditionWindow]] = None,
    network_stat: str = "mean",
    statistic: str = "mean",
    min_bin_count: int = 1,
) -> BinnedCurve:
    """Bin sessions by a network metric and summarise an engagement metric.

    Args:
        participants: sessions to analyse (already cohort-filtered) — a
            ``CallDataset``, prebuilt ``ParticipantColumns``, or an
            iterable of records.
        network_metric: x-axis metric, one of ``NETWORK_METRICS``.
        engagement_metric: y-axis metric, one of ``ENGAGEMENT_METRICS``
            or ``"dropped_early"`` (the §3.2 drop-off observation).
        edges: x-axis bin edges.
        control_windows: hold-other-metrics-constant filters; pass
            :func:`repro.engagement.cohort.control_windows_except` output
            for the paper's methodology, or None to skip (ablation).
        network_stat: which per-session aggregate to bin on (the paper
            uses the mean, noting the same trends hold for P95).
        statistic: per-bin reduction of the engagement metric.
        min_bin_count: bins with fewer samples get NaN (statistically
            meaningless points stay visibly absent rather than noisy).
    """
    if network_metric not in NETWORK_METRICS:
        raise AnalysisError(f"unknown network metric {network_metric!r}")
    valid_engagement = ENGAGEMENT_METRICS + ("dropped_early",)
    if engagement_metric not in valid_engagement:
        raise AnalysisError(f"unknown engagement metric {engagement_metric!r}")

    cols = participant_columns(participants)
    keys = cols.metric(network_metric, network_stat)
    values = cols.engagement_values(engagement_metric)
    if control_windows is not None:
        mask = cols.window_mask(control_windows)
        keys = keys[mask]
        values = values[mask]
    if len(keys) == 0:
        raise AnalysisError(
            f"no sessions left for {network_metric} after control windows"
        )
    curve = bin_statistic(keys, values, edges, statistic=statistic)
    return _mask_sparse_bins(curve, min_bin_count)


def curve_matrix(
    participants: ParticipantSource,
    edges: Dict[str, Sequence[float]],
    engagement_metrics: Optional[Sequence[str]] = None,
    control_windows: Optional[Dict[str, Iterable[ConditionWindow]]] = None,
    network_stat: str = "mean",
    statistic: str = "mean",
    min_bin_count: int = 1,
) -> Dict[str, Dict[str, BinnedCurve]]:
    """All engagement × network curves in one grouping pass per metric.

    The per-curve path bins the same key column M times (once per
    engagement metric); here each network metric in ``edges`` is binned
    **once** and every engagement column is reduced against that shared
    :class:`~repro.core.stats.BinGrouping`.  Output is
    ``{network_metric: {engagement_metric: BinnedCurve}}`` and every
    curve is bit-identical to the corresponding
    :func:`engagement_curve` call.

    Args:
        participants: as for :func:`engagement_curve`.
        edges: per-network-metric bin edges (also selects the panels).
        engagement_metrics: y-axis metrics; defaults to
            ``ENGAGEMENT_METRICS``.
        control_windows: optional per-network-metric window lists (e.g.
            ``{m: control_windows_except(m) for m in edges}``).
    """
    names = (
        list(engagement_metrics)
        if engagement_metrics is not None
        else list(ENGAGEMENT_METRICS)
    )
    for network_metric in edges:
        if network_metric not in NETWORK_METRICS:
            raise AnalysisError(f"unknown network metric {network_metric!r}")
    valid_engagement = ENGAGEMENT_METRICS + ("dropped_early",)
    for name in names:
        if name not in valid_engagement:
            raise AnalysisError(f"unknown engagement metric {name!r}")

    cols = participant_columns(participants)
    if len(cols) == 0:
        raise AnalysisError("no participants to analyse")

    value_columns = {name: cols.engagement_values(name) for name in names}
    curves: Dict[str, Dict[str, BinnedCurve]] = {}
    for network_metric, metric_edges in edges.items():
        keys = cols.metric(network_metric, network_stat)
        windows = (control_windows or {}).get(network_metric)
        if windows is not None:
            mask = cols.window_mask(windows)
            keys = keys[mask]
            panel_values = {n: col[mask] for n, col in value_columns.items()}
        else:
            panel_values = value_columns
        if len(keys) == 0:
            raise AnalysisError(
                f"no sessions left for {network_metric} after control windows"
            )
        grouping = bin_grouping(keys, metric_edges)
        curves[network_metric] = {
            name: _mask_sparse_bins(
                grouping.reduce(panel_values[name], statistic), min_bin_count
            )
            for name in names
        }
    return curves
