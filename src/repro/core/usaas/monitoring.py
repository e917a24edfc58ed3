"""Continuous monitoring: USaaS as an alarm service.

§6: *"Both service and network providers could proactively act based on
USaaS output."*  The batch ``answer()`` path tells a stakeholder what has
happened; this module watches a signal stream and tells them the moment
something *starts* happening, by replaying the series day by day through
the engagement drift detector.

:func:`watch_metric` returns every alarm the detector would have raised
across the series' history — running it daily in production amounts to
keeping only the last day's verdict.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.signals import SignalSeries
from repro.engagement.early_warning import DriftDetector
from repro.errors import AnalysisError


@dataclass(frozen=True)
class Alarm:
    """One raised alarm.

    Attributes:
        day: the day the alarm fired.
        metric: which metric drifted.
        z_score: that day's z-score against the learned baseline.
        day_mean: the day's mean metric value.
        n_signals: how many signals the day aggregated.
    """

    day: dt.date
    metric: str
    z_score: float
    day_mean: float
    n_signals: int


def watch_metric(
    series: SignalSeries,
    metric: str,
    detector: Optional[DriftDetector] = None,
    rearm: bool = True,
) -> List[Alarm]:
    """Replay a signal series through a drift detector.

    Args:
        series: the signal stream (any kind/network mix — filter first).
        metric: the metric to watch.
        detector: detector settings; default watches for drops.
        rearm: after an alarm, reset the streak so distinct episodes
            produce distinct alarms (False = first alarm only).

    Returns:
        Alarms in chronological order.
    """
    subset = series.filter(metric=metric)
    if len(subset) == 0:
        raise AnalysisError(f"no signals carry metric {metric!r}")
    # Each day's values in row order: a stable sort by day ordinal.
    day = subset._col("day")
    order = np.argsort(day, kind="stable")
    days, starts = np.unique(day[order], return_index=True)
    per_day = np.split(subset._col("value")[order], starts[1:])

    detector = detector or DriftDetector()
    alarms: List[Alarm] = []
    previously_alarmed = False
    for ordinal, day_values in zip(days.tolist(), per_day):
        values = day_values.tolist()
        z = detector.observe(values)
        if detector.has_alarmed and not previously_alarmed:
            alarms.append(Alarm(
                day=dt.date.fromordinal(ordinal),
                metric=metric,
                z_score=float(z) if z is not None else float("nan"),
                day_mean=float(sum(values) / len(values)),
                n_signals=len(values),
            ))
            if rearm:
                detector._alarmed = False
                detector._streak = 0
            else:
                previously_alarmed = True
    return alarms
