"""Core shared machinery: statistics, time series, and the USaaS framework.

The paper's headline contribution — *User Signals as-a-Service* (§5) —
lives in :mod:`repro.core.usaas`.  This package also hosts the statistical
primitives (:mod:`repro.core.stats`), the unified signal model
(:mod:`repro.core.signals`) and time-series alignment helpers
(:mod:`repro.core.timeline`) that both the §3 and §4 analysis pipelines
build on.
"""

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    Signal,
    SignalKind,
    SignalSeries,
)
from repro.core.stats import (
    BinnedCurve,
    bin_statistic,
    pearson,
    percentile,
    spearman,
)
from repro.core.timeline import DailySeries, MonthlySeries, align_series

__all__ = [
    "BinnedCurve",
    "DailySeries",
    "ExplicitSignal",
    "ImplicitSignal",
    "MonthlySeries",
    "Signal",
    "SignalKind",
    "SignalSeries",
    "align_series",
    "bin_statistic",
    "pearson",
    "percentile",
    "spearman",
]
