"""Daily and monthly time series used by the §4 social pipelines.

The Reddit analyses all reduce to operations over two shapes of series:
per-day counts/scores (Figs. 5a and 6) and per-month medians/ratios
(Fig. 7).  These classes keep the series dense over an explicit date span
so that "no posts that day" is an explicit zero/NaN rather than a missing
key, which is what the paper's day-wise plots assume.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

Month = Tuple[int, int]  # (year, month)


def month_of(day: dt.date) -> Month:
    return (day.year, day.month)


def iter_days(start: dt.date, end: dt.date) -> Iterator[dt.date]:
    """Yield every date from ``start`` to ``end`` inclusive."""
    if end < start:
        raise AnalysisError(f"end {end} precedes start {start}")
    current = start
    one = dt.timedelta(days=1)
    while current <= end:
        yield current
        current += one


def iter_months(start: Month, end: Month) -> Iterator[Month]:
    """Yield every (year, month) from ``start`` to ``end`` inclusive."""
    if end < start:
        raise AnalysisError(f"end {end} precedes start {start}")
    year, month = start
    while (year, month) <= end:
        yield (year, month)
        month += 1
        if month == 13:
            year, month = year + 1, 1


@dataclass
class DailySeries:
    """A dense per-day series over ``[start, end]``.

    Values default to ``fill`` (0.0) for days never assigned.
    """

    start: dt.date
    end: dt.date
    values: np.ndarray

    @classmethod
    def zeros(cls, start: dt.date, end: dt.date, fill: float = 0.0) -> "DailySeries":
        n_days = (end - start).days + 1
        if n_days < 1:
            raise AnalysisError(f"empty span {start}..{end}")
        return cls(start=start, end=end, values=np.full(n_days, fill, dtype=float))

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[dt.date, float],
        start: Optional[dt.date] = None,
        end: Optional[dt.date] = None,
        fill: float = 0.0,
    ) -> "DailySeries":
        if not mapping and (start is None or end is None):
            raise AnalysisError("empty mapping needs explicit start and end")
        span_start = start if start is not None else min(mapping)
        span_end = end if end is not None else max(mapping)
        series = cls.zeros(span_start, span_end, fill=fill)
        for day, value in mapping.items():
            series[day] = value
        return series

    def _index(self, day: dt.date) -> int:
        idx = (day - self.start).days
        if idx < 0 or idx >= len(self.values):
            raise AnalysisError(f"{day} outside span {self.start}..{self.end}")
        return idx

    def __getitem__(self, day: dt.date) -> float:
        return float(self.values[self._index(day)])

    def __setitem__(self, day: dt.date, value: float) -> None:
        self.values[self._index(day)] = value

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, day: dt.date) -> bool:
        return self.start <= day <= self.end

    def add(self, day: dt.date, amount: float = 1.0) -> None:
        """Increment a day's value — the counting primitive for Figs. 5a/6."""
        self.values[self._index(day)] += amount

    def days(self) -> List[dt.date]:
        return list(iter_days(self.start, self.end))

    def items(self) -> Iterator[Tuple[dt.date, float]]:
        for i, day in enumerate(iter_days(self.start, self.end)):
            yield day, float(self.values[i])

    def top_peaks(self, k: int, min_separation_days: int = 7) -> List[Tuple[dt.date, float]]:
        """The ``k`` largest values, greedily suppressing nearby days.

        The paper reports the "top three sentiment peaks"; consecutive days
        of the same event must not consume multiple slots, hence the
        separation window.
        """
        if k < 1:
            raise AnalysisError("k must be positive")
        order = np.argsort(self.values)[::-1]
        chosen: List[Tuple[dt.date, float]] = []
        chosen_idx: List[int] = []
        for idx in order:
            if len(chosen) == k:
                break
            if any(abs(int(idx) - prev) < min_separation_days for prev in chosen_idx):
                continue
            day = self.start + dt.timedelta(days=int(idx))
            chosen.append((day, float(self.values[idx])))
            chosen_idx.append(int(idx))
        return chosen

    def weekly_average(self) -> float:
        """Mean value per 7-day week across the span (§4.1 volume stats)."""
        return float(self.values.sum() / (len(self.values) / 7.0))

    def monthly(self, reducer: str = "sum") -> "MonthlySeries":
        """Collapse to a monthly series via ``sum``, ``mean`` or ``median``."""
        buckets: Dict[Month, List[float]] = {}
        for day, value in self.items():
            buckets.setdefault(month_of(day), []).append(value)
        reducers = {"sum": np.sum, "mean": np.mean, "median": np.median}
        if reducer not in reducers:
            raise AnalysisError(f"unknown reducer {reducer!r}")
        fn = reducers[reducer]
        return MonthlySeries.from_mapping(
            {m: float(fn(vals)) for m, vals in buckets.items()}
        )


@dataclass
class MonthlySeries:
    """A dense per-month series over ``[start, end]`` (inclusive months)."""

    start: Month
    end: Month
    values: np.ndarray

    @classmethod
    def zeros(cls, start: Month, end: Month, fill: float = np.nan) -> "MonthlySeries":
        n_months = len(list(iter_months(start, end)))
        return cls(start=start, end=end, values=np.full(n_months, fill, dtype=float))

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[Month, float],
        start: Optional[Month] = None,
        end: Optional[Month] = None,
        fill: float = np.nan,
    ) -> "MonthlySeries":
        if not mapping and (start is None or end is None):
            raise AnalysisError("empty mapping needs explicit start and end")
        span_start = start if start is not None else min(mapping)
        span_end = end if end is not None else max(mapping)
        series = cls.zeros(span_start, span_end, fill=fill)
        for month, value in mapping.items():
            series[month] = value
        return series

    def __contains__(self, month: Month) -> bool:
        return 1 <= month[1] <= 12 and self.start <= month <= self.end

    def _index(self, month: Month) -> int:
        if month not in self:
            raise AnalysisError(f"{month} outside span {self.start}..{self.end}")
        return (month[0] - self.start[0]) * 12 + month[1] - self.start[1]

    def __getitem__(self, month: Month) -> float:
        return float(self.values[self._index(month)])

    def __setitem__(self, month: Month, value: float) -> None:
        self.values[self._index(month)] = value

    def __len__(self) -> int:
        return len(self.values)

    def months(self) -> List[Month]:
        return list(iter_months(self.start, self.end))

    def items(self) -> Iterator[Tuple[Month, float]]:
        for month, value in zip(self.months(), self.values):
            yield month, float(value)

    def slice(self, start: Month, end: Month) -> "MonthlySeries":
        """Restrict to the closed month range ``[start, end]``."""
        if start not in self or end not in self:
            raise AnalysisError(f"slice {start}..{end} outside {self.start}..{self.end}")
        i, j = self._index(start), self._index(end)
        if j < i:
            raise AnalysisError("slice end precedes start")
        return MonthlySeries(start=start, end=end, values=self.values[i : j + 1].copy())

    def trend(self) -> float:
        """Least-squares slope per month, ignoring NaN months.

        Positive means the series rises over the span — used to check the
        Fig. 7 rise (Jan–Sep '21) and decline (Sep '21–Dec '22) segments.
        """
        mask = ~np.isnan(self.values)
        if mask.sum() < 2:
            raise AnalysisError("trend needs at least two non-NaN months")
        x = np.arange(len(self.values))[mask]
        y = self.values[mask]
        slope = np.polyfit(x, y, 1)[0]
        return float(slope)


def align_series(
    a: MonthlySeries, b: MonthlySeries
) -> Tuple[List[Month], np.ndarray, np.ndarray]:
    """Intersect two monthly series on months where both are non-NaN.

    Returns (months, a_values, b_values) ready for correlation — this is
    how the Fig. 7 "Pos follows downlink speed" claim is quantified.
    """
    common = [m for m in a.months() if m in b]
    months: List[Month] = []
    a_vals: List[float] = []
    b_vals: List[float] = []
    for month in common:
        va, vb = a[month], b[month]
        if not (np.isnan(va) or np.isnan(vb)):
            months.append(month)
            a_vals.append(va)
            b_vals.append(vb)
    return months, np.asarray(a_vals), np.asarray(b_vals)
