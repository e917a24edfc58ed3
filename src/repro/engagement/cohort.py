"""Confounder controls: cohort filtering and condition windows.

§3.1: *"To tackle confounders, we study only enterprise calls during
business hours (9 AM - 8 PM EST) on weekdays with 3+ participants, all in
the US."*  §3.2: *"While evaluating one network condition metric, we try
to analyze the calls where other metrics are roughly constant (latency
between 0 - 40 ms, loss rate between 0 - 0.2%, jitter between 0 - 5 ms,
and bandwidth between 3 - 4 Mbps)."*

Both controls are implemented here as reusable, explicit objects so the
benchmark ablations (DESIGN.md §5) can switch them off and show what the
curves look like without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import AnalysisError
from repro.telemetry.schema import NETWORK_METRICS
from repro.telemetry.store import CallDataset


@dataclass(frozen=True)
class CohortFilter:
    """The paper's call-level cohort definition."""

    enterprise_only: bool = True
    business_hours_only: bool = True
    weekdays_only: bool = True
    min_participants: int = 3
    countries: Optional[frozenset] = frozenset({"US"})
    start_hour: int = 9
    end_hour: int = 20

    def __post_init__(self) -> None:
        if self.min_participants < 1:
            raise AnalysisError("min_participants must be >= 1")
        if not 0 <= self.start_hour < self.end_hour <= 24:
            raise AnalysisError("invalid business-hours window")

    def apply(self, dataset: CallDataset) -> CallDataset:
        def keep(call) -> bool:
            if self.enterprise_only and not call.is_enterprise:
                return False
            if self.weekdays_only and call.start.weekday() >= 5:
                return False
            if self.business_hours_only and not (
                self.start_hour <= call.start.hour < self.end_hour
            ):
                return False
            if call.size < self.min_participants:
                return False
            if self.countries is not None and not all(
                c in self.countries for c in call.countries
            ):
                return False
            return True

        return dataset.filter_calls(keep)


@dataclass(frozen=True)
class ConditionWindow:
    """An inclusive [low, high] window on one per-session network metric."""

    metric: str
    low: float
    high: float
    stat: str = "mean"

    def __post_init__(self) -> None:
        if self.metric not in NETWORK_METRICS:
            raise AnalysisError(f"unknown network metric {self.metric!r}")
        if self.high < self.low:
            raise AnalysisError(f"window high {self.high} < low {self.low}")


# The paper's §3.2 control windows, keyed by metric.
PAPER_CONTROL_WINDOWS: Dict[str, ConditionWindow] = {
    "latency_ms": ConditionWindow("latency_ms", 0.0, 40.0),
    "loss_pct": ConditionWindow("loss_pct", 0.0, 0.2),
    "jitter_ms": ConditionWindow("jitter_ms", 0.0, 5.0),
    "bandwidth_mbps": ConditionWindow("bandwidth_mbps", 3.0, 4.0),
}


def control_windows_except(target_metric: str) -> List[ConditionWindow]:
    """Control windows for every network metric except the one under study."""
    if target_metric not in NETWORK_METRICS:
        raise AnalysisError(f"unknown network metric {target_metric!r}")
    return [w for m, w in PAPER_CONTROL_WINDOWS.items() if m != target_metric]

