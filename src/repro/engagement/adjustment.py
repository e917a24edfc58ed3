"""§6 "Are networks to blame always?" — confounder adjustment.

The paper's future-work list opens with confounding: platform, meeting
size and long-term conditioning all move user actions independently of
the network.  A naive engagement-vs-latency curve therefore mixes two
effects: the network's causal impact, and the changing *composition* of
who sits in each latency bin (mobile users have worse networks *and*
lower baseline engagement).

This module provides the two standard observational fixes:

* **stratified curves** — one engagement curve per confounder stratum,
  so within-stratum comparisons are composition-free;
* **direct standardisation** — a single adjusted curve re-weighted to a
  fixed reference mix of strata, comparable across bins by construction.

``confounder_gap`` quantifies how much adjustment mattered: the mean
absolute difference between raw and adjusted curves, in engagement
points.  An "effective USaaS should take into account all such
confounders" — this is the taking-into-account.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.stats import BinnedCurve, bin_statistic
from repro.errors import AnalysisError
from repro.telemetry.schema import (
    ENGAGEMENT_METRICS,
    NETWORK_METRICS,
    ParticipantRecord,
)

StratumFn = Callable[[ParticipantRecord], str]


def stratify_by_platform(participant: ParticipantRecord) -> str:
    return participant.platform


def stratify_by_device_class(participant: ParticipantRecord) -> str:
    return "mobile" if "mobile" in participant.platform else "pc"


@dataclass(frozen=True)
class AdjustedCurve:
    """Raw vs confounder-adjusted engagement curve.

    Attributes:
        raw: the unadjusted curve over all sessions.
        adjusted: the directly-standardised curve (fixed stratum mix).
        strata: per-stratum curves.
        reference_mix: the stratum weights used for standardisation
            (overall population shares).
    """

    raw: BinnedCurve
    adjusted: BinnedCurve
    strata: Dict[str, BinnedCurve]
    reference_mix: Dict[str, float]

    def confounder_gap(self) -> float:
        """Mean |raw − adjusted| over bins where both are finite."""
        mask = ~(np.isnan(self.raw.stat) | np.isnan(self.adjusted.stat))
        if not mask.any():
            raise AnalysisError("no commonly populated bins")
        return float(np.abs(self.raw.stat[mask] - self.adjusted.stat[mask]).mean())


def adjusted_curve(
    participants: Iterable[ParticipantRecord],
    network_metric: str,
    engagement_metric: str,
    edges: Sequence[float],
    stratify: StratumFn = stratify_by_platform,
    network_stat: str = "mean",
    min_stratum_bin_count: int = 5,
) -> AdjustedCurve:
    """Compute raw, per-stratum, and standardised engagement curves.

    Direct standardisation: the adjusted value of bin *b* is
    ``sum_s w_s * mean_{s,b}`` where ``w_s`` is stratum *s*'s share of the
    whole population and ``mean_{s,b}`` its engagement mean in bin *b*.
    Bins where any stratum is too thin are left NaN rather than silently
    extrapolated.
    """
    if network_metric not in NETWORK_METRICS:
        raise AnalysisError(f"unknown network metric {network_metric!r}")
    if engagement_metric not in ENGAGEMENT_METRICS:
        raise AnalysisError(f"unknown engagement metric {engagement_metric!r}")
    pool: List[ParticipantRecord] = list(participants)
    if not pool:
        raise AnalysisError("no participants to analyse")

    keys = [p.metric(network_metric, network_stat) for p in pool]
    values = [getattr(p, engagement_metric) for p in pool]
    raw = bin_statistic(keys, values, edges)

    by_stratum: Dict[str, List[ParticipantRecord]] = {}
    for p in pool:
        by_stratum.setdefault(stratify(p), []).append(p)
    if len(by_stratum) < 2:
        raise AnalysisError(
            "stratification produced fewer than two strata — nothing to adjust"
        )
    reference_mix = {
        name: len(members) / len(pool) for name, members in by_stratum.items()
    }

    strata: Dict[str, BinnedCurve] = {}
    for name, members in by_stratum.items():
        strata[name] = bin_statistic(
            [p.metric(network_metric, network_stat) for p in members],
            [getattr(p, engagement_metric) for p in members],
            edges,
        )

    n_bins = raw.n_bins
    adjusted_stat = np.full(n_bins, np.nan)
    adjusted_counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        total = 0.0
        ok = True
        for name, curve in strata.items():
            if curve.counts[b] < min_stratum_bin_count or np.isnan(curve.stat[b]):
                ok = False
                break
            total += reference_mix[name] * curve.stat[b]
        if ok:
            adjusted_stat[b] = total
            adjusted_counts[b] = sum(c.counts[b] for c in strata.values())
    adjusted = BinnedCurve(
        edges=raw.edges, centers=raw.centers,
        stat=adjusted_stat, counts=adjusted_counts,
    )
    return AdjustedCurve(
        raw=raw, adjusted=adjusted, strata=strata, reference_mix=reference_mix
    )


def composition_bias_demo(
    participants: Iterable[ParticipantRecord],
    network_metric: str = "latency_ms",
    engagement_metric: str = "mic_on_pct",
    edges: Sequence[float] = (0, 100, 200, 300),
    stratify: StratumFn = stratify_by_device_class,
) -> Dict[str, float]:
    """Quantify how much of the raw slope is composition, not causation.

    Returns the raw and adjusted first-to-last-bin drops; their difference
    is the composition bias the naive analysis would misattribute to the
    network.
    """
    result = adjusted_curve(
        participants, network_metric, engagement_metric, edges,
        stratify=stratify,
    )

    def drop(curve: BinnedCurve) -> float:
        finite = np.where(~np.isnan(curve.stat))[0]
        if len(finite) < 2:
            raise AnalysisError("curve needs two finite bins")
        first, last = curve.stat[finite[0]], curve.stat[finite[-1]]
        if first <= 0:
            raise AnalysisError("first bin non-positive")
        return float(100.0 * (first - last) / first)

    raw_drop = drop(result.raw)
    adjusted_drop = drop(result.adjusted)
    return {
        "raw_drop_pct": raw_drop,
        "adjusted_drop_pct": adjusted_drop,
        "composition_bias_pct": raw_drop - adjusted_drop,
    }
