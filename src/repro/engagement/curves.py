"""Fig. 1 reproduction: engagement vs latency / loss / jitter / bandwidth.

Each panel bins cohort sessions along one network metric (holding the
other three inside the paper's control windows) and reports the mean of
each engagement metric per bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.stats import BinnedCurve
from repro.engagement.binning import curve_matrix
from repro.engagement.cohort import ConditionWindow, control_windows_except
from repro.engagement.metrics import normalize_to_best
from repro.errors import AnalysisError
from repro.perf.columnar import participant_columns
from repro.telemetry.schema import ENGAGEMENT_METRICS, ParticipantRecord

# Panel x-axis edges matching the ranges shown in Fig. 1.
DEFAULT_EDGES: Dict[str, np.ndarray] = {
    "latency_ms": np.linspace(0, 300, 11),
    "loss_pct": np.linspace(0, 2.0, 9),
    "jitter_ms": np.linspace(0, 12.0, 9),
    "bandwidth_mbps": np.linspace(0.25, 4.25, 9),
}


@dataclass(frozen=True)
class Fig1Result:
    """All four panels: ``curves[network_metric][engagement_metric]``."""

    curves: Dict[str, Dict[str, BinnedCurve]]

    def panel(self, network_metric: str) -> Dict[str, BinnedCurve]:
        if network_metric not in self.curves:
            raise AnalysisError(f"no panel for {network_metric!r}")
        return self.curves[network_metric]

    def relative_drop_pct(
        self, network_metric: str, engagement_metric: str
    ) -> float:
        """Percentage drop of the curve from its best bin to its last bin.

        This is the number behind statements like "Mic On reduces by more
        than 25%" — the loss of engagement at the worst end of the axis
        relative to the best value along the curve.
        """
        curve = self.panel(network_metric)[engagement_metric]
        normalized = normalize_to_best(curve.stat)
        finite = np.where(~np.isnan(normalized))[0]
        if len(finite) == 0:
            raise AnalysisError("curve has no finite bins")
        return float(100.0 - normalized[finite[-1]])


def fig1_curves(
    participants: Iterable[ParticipantRecord],
    edges: Optional[Dict[str, np.ndarray]] = None,
    use_control_windows: bool = True,
    network_stat: str = "mean",
    min_bin_count: int = 5,
    include_drop: bool = False,
) -> Fig1Result:
    """Compute all four Fig. 1 panels.

    Args:
        participants: cohort-filtered sessions.
        edges: per-metric bin edges; defaults to ``DEFAULT_EDGES``.
        use_control_windows: hold the other three metrics inside the
            paper's windows (False = the DESIGN.md ablation).
        include_drop: additionally compute the drop-off-rate curve, used
            for the §3.2 "at 3%+ loss the chance of dropping off increases"
            observation.
    """
    cols = participant_columns(participants)
    if len(cols) == 0:
        raise AnalysisError("no participants to analyse")
    edge_map = dict(DEFAULT_EDGES)
    if edges:
        edge_map.update(edges)

    engagement_names = list(ENGAGEMENT_METRICS)
    if include_drop:
        engagement_names.append("dropped_early")

    windows: Optional[Dict[str, List[ConditionWindow]]] = (
        {m: control_windows_except(m) for m in edge_map}
        if use_control_windows
        else None
    )
    return Fig1Result(curves=curve_matrix(
        cols,
        edge_map,
        engagement_metrics=engagement_names,
        control_windows=windows,
        network_stat=network_stat,
        min_bin_count=min_bin_count,
    ))
