"""Engagement as an early-warning signal for call-quality regressions.

§3.3: *"While MOS scores are sampled and delayed, these correlations show
that user engagement could be considered as early and more readily
available indication of call quality."*  This module operationalises that
claim: a sequential detector watches a per-day stream of session
aggregates and raises when the metric departs from its learned baseline.

The statistical asymmetry the paper points at is *sample size*: every
session contributes engagement, while only ~0.1–1 % contribute a rating —
so for the same false-alarm rate, an engagement-based detector confirms a
regression days earlier than a MOS-based one.
:func:`detection_latency_experiment` measures exactly that on simulated
pre/post-regression traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError


@dataclass
class DriftDetector:
    """Sequential mean-shift detector over daily summaries.

    A Welford-style baseline (mean and variance of the *daily mean*) is
    frozen after ``warmup_days``; afterwards each day's mean is converted
    to a z-score using the standard error implied by that day's own
    sample count, and an alarm is raised after ``consecutive_days`` days
    beyond ``z_threshold``.  The per-day sample count is what gives the
    dense metric its head start.

    Attributes:
        warmup_days: days used to learn the baseline.
        z_threshold: per-day |z| needed to count as suspicious.
        consecutive_days: suspicious days in a row needed to alarm.
        direction: ``"drop"`` (engagement regressions), ``"rise"``, or
            ``"both"``.
    """

    warmup_days: int = 14
    z_threshold: float = 3.0
    consecutive_days: int = 2
    direction: str = "drop"
    _n_days: int = field(default=0, repr=False)
    _mean: float = field(default=0.0, repr=False)
    _m2: float = field(default=0.0, repr=False)
    _within_var_sum: float = field(default=0.0, repr=False)
    _streak: int = field(default=0, repr=False)
    _alarmed: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.warmup_days < 3:
            raise AnalysisError("warmup_days must be >= 3")
        if self.z_threshold <= 0:
            raise AnalysisError("z_threshold must be positive")
        if self.consecutive_days < 1:
            raise AnalysisError("consecutive_days must be >= 1")
        if self.direction not in ("drop", "rise", "both"):
            raise AnalysisError(f"unknown direction {self.direction!r}")

    @property
    def is_warmed_up(self) -> bool:
        return self._n_days >= self.warmup_days

    @property
    def has_alarmed(self) -> bool:
        return self._alarmed

    def observe(self, values: Sequence[float]) -> Optional[float]:
        """Feed one day of per-session values; returns the day's z-score
        once warmed up (None during warmup or for empty days)."""
        arr = np.asarray(values, dtype=float)
        if len(arr) == 0:
            return None
        if not np.isfinite(arr).all():
            raise AnalysisError("daily values must be finite")
        day_mean = float(arr.mean())
        day_var = float(arr.var(ddof=1)) if len(arr) > 1 else 0.0

        if not self.is_warmed_up:
            self._n_days += 1
            delta = day_mean - self._mean
            self._mean += delta / self._n_days
            self._m2 += delta * (day_mean - self._mean)
            self._within_var_sum += day_var
            return None

        # Baseline within-day variance (average across warmup days).
        within_var = self._within_var_sum / self.warmup_days
        # Standard error of today's mean under the baseline distribution,
        # floored by day-to-day baseline wobble.
        se_today = math.sqrt(max(within_var / len(arr), 1e-12))
        between_sd = math.sqrt(max(self._m2 / max(1, self._n_days - 1), 0.0))
        scale = max(se_today, between_sd, 1e-9)
        z = (day_mean - self._mean) / scale

        suspicious = (
            (self.direction == "drop" and z <= -self.z_threshold)
            or (self.direction == "rise" and z >= self.z_threshold)
            or (self.direction == "both" and abs(z) >= self.z_threshold)
        )
        self._streak = self._streak + 1 if suspicious else 0
        if self._streak >= self.consecutive_days:
            self._alarmed = True
        return float(z)


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of running a detector over a regression scenario.

    ``days_to_detect`` is measured from the regression onset; None means
    the detector never fired within the horizon.
    """

    metric: str
    days_to_detect: Optional[int]
    false_alarm: bool


def run_detector(
    daily_values: Sequence[Sequence[float]],
    onset_day: int,
    metric: str,
    detector: Optional[DriftDetector] = None,
) -> DetectionOutcome:
    """Stream a scenario through a detector and report detection latency.

    Args:
        daily_values: per-day lists of per-session values.
        onset_day: index of the first degraded day (alarms strictly
            before it count as false alarms).
        metric: label for the outcome.
    """
    if not 0 <= onset_day <= len(daily_values):
        raise AnalysisError("onset_day outside the scenario horizon")
    detector = detector or DriftDetector()
    for day, values in enumerate(daily_values):
        detector.observe(values)
        if detector.has_alarmed:
            if day < onset_day:
                return DetectionOutcome(metric=metric, days_to_detect=None,
                                        false_alarm=True)
            return DetectionOutcome(
                metric=metric, days_to_detect=day - onset_day,
                false_alarm=False,
            )
    return DetectionOutcome(metric=metric, days_to_detect=None,
                            false_alarm=False)


def detection_latency_experiment(
    rng: np.random.Generator,
    n_days: int = 60,
    onset_day: int = 40,
    sessions_per_day: int = 400,
    mos_sample_rate: float = 0.01,
    engagement_drop: float = 6.0,
    mos_drop: float = 0.35,
    baseline_engagement: float = 48.0,
    engagement_sd: float = 18.0,
    baseline_mos: float = 4.0,
    mos_sd: float = 0.8,
) -> Dict[str, DetectionOutcome]:
    """Engagement-based vs MOS-based regression detection, head to head.

    Simulates a service where a quality regression ships on ``onset_day``:
    mean engagement drops by ``engagement_drop`` points (observed for
    every session) and mean rating drops by ``mos_drop`` stars (observed
    for ``mos_sample_rate`` of sessions).  Both detectors run with the
    same settings; the returned outcomes expose the latency gap the
    paper's "early indication" argument predicts.
    """
    if not 0 < mos_sample_rate <= 1:
        raise AnalysisError("mos_sample_rate must be in (0, 1]")
    engagement_days: List[List[float]] = []
    mos_days: List[List[float]] = []
    for day in range(n_days):
        degraded = day >= onset_day
        eng_mean = baseline_engagement - (engagement_drop if degraded else 0.0)
        engagement_days.append(list(
            np.clip(rng.normal(eng_mean, engagement_sd, size=sessions_per_day),
                    0, 100)
        ))
        n_rated = rng.binomial(sessions_per_day, mos_sample_rate)
        mos_mean = baseline_mos - (mos_drop if degraded else 0.0)
        mos_days.append(list(
            np.clip(rng.normal(mos_mean, mos_sd, size=n_rated), 1, 5)
        ))
    return {
        "engagement": run_detector(
            engagement_days, onset_day, "engagement",
            DriftDetector(warmup_days=14),
        ),
        "mos": run_detector(
            mos_days, onset_day, "mos",
            DriftDetector(warmup_days=14),
        ),
    }
