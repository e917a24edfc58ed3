"""§4.2 "Following the Shifting Fulcrum": sentiment vs speed over time.

The normalized strong positive score:

    Pos = strong_positive / (strong_positive + strong_negative)

is computed per month over the posts that share speed-test reports, then
compared with the extracted speed track.  Three paper claims are checked
by the benchmark on top of this module:

* Pos broadly follows the speed curve (positive correlation);
* the Dec '21 vs Apr '21 exception: higher speed, drastically lower Pos
  (expectations had been conditioned upward by the Sep '21 era);
* the Mar–Dec '22 inversion: speeds fall, Pos recovers (users get
  conditioned to less).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.stats import pearson
from repro.core.timeline import Month, MonthlySeries, align_series
from repro.errors import AnalysisError
from repro.perf.columnar import corpus_columns


@dataclass
class FulcrumResult:
    """Monthly Pos score aligned with the speed track."""

    pos: MonthlySeries
    speed: MonthlySeries

    def correlation(self) -> float:
        """Pearson correlation between Pos and speed over common months."""
        _, pos_vals, speed_vals = align_series(self.pos, self.speed)
        if len(pos_vals) < 3:
            raise AnalysisError("too few common months for correlation")
        return pearson(pos_vals, speed_vals)

    def exception_dec21_vs_apr21(self, window: bool = True) -> Dict[str, float]:
        """The first conditioning exception's raw numbers.

        With ``window`` (the default), each month is represented by the
        mean over its season (Mar–May '21 and Oct–Dec '21), which averages
        out the sampling noise of monthly medians built from ~70 shared
        screenshots; ``window=False`` gives the raw single-month values.
        """
        if window:
            spring = [(2021, 3), (2021, 4), (2021, 5)]
            q4 = [(2021, 10), (2021, 11), (2021, 12)]
            return {
                "speed_apr21": _window_mean(self.speed, spring),
                "speed_dec21": _window_mean(self.speed, q4),
                "pos_apr21": _window_mean(self.pos, spring),
                "pos_dec21": _window_mean(self.pos, q4),
            }
        return {
            "speed_apr21": self.speed[(2021, 4)],
            "speed_dec21": self.speed[(2021, 12)],
            "pos_apr21": self.pos[(2021, 4)],
            "pos_dec21": self.pos[(2021, 12)],
        }

    def inversion_2022(self) -> Dict[str, float]:
        """Speed and Pos trends over Mar–Dec '22 (expect -, +)."""
        return {
            "speed_trend": self.speed.slice((2022, 3), (2022, 12)).trend(),
            "pos_trend": self.pos.slice((2022, 3), (2022, 12)).trend(),
        }


def _window_mean(series: MonthlySeries, months) -> float:
    values = [series[m] for m in months]
    finite = [v for v in values if not np.isnan(v)]
    if not finite:
        raise AnalysisError(f"no finite values in window {months}")
    return float(np.mean(finite))


def pos_vs_speed(
    corpus: Any,
    speed: MonthlySeries,
    analyzer: Optional[Any] = None,
    min_strong_posts: int = 5,
) -> FulcrumResult:
    """Compute monthly Pos over speed-share posts and align with speeds.

    §4.2 defines Pos over posts *that share Starlink speed-test reports*,
    using strong scores only — "thus filtering out edge cases when
    identifying the sentiment is hard."  ``corpus`` is anything
    :func:`~repro.perf.columnar.corpus_columns` accepts; the shared
    sentiment block and month column are read over just the speed-share
    rows.
    """
    strong_pos: Dict[Month, int] = {}
    strong_neg: Dict[Month, int] = {}
    cols = corpus_columns(corpus)
    block = cols.sentiment(analyzer)
    for i in cols.speed_indices.tolist():
        month = cols.month[i]
        if block.strong_positive[i]:
            strong_pos[month] = strong_pos.get(month, 0) + 1
        elif block.strong_negative[i]:
            strong_neg[month] = strong_neg.get(month, 0) + 1

    values: Dict[Month, float] = {}
    for month in set(strong_pos) | set(strong_neg):
        p = strong_pos.get(month, 0)
        n = strong_neg.get(month, 0)
        if p + n >= min_strong_posts:
            values[month] = p / (p + n)
    if not values:
        raise AnalysisError(
            "no month had enough strong-sentiment speed-share posts"
        )
    pos = MonthlySeries.from_mapping(
        values, start=speed.start, end=speed.end
    )
    return FulcrumResult(pos=pos, speed=speed)
