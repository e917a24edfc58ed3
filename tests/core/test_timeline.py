"""Tests for repro.core.timeline."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeline import (
    DailySeries,
    MonthlySeries,
    align_series,
    iter_days,
    iter_months,
    month_of,
)
from repro.errors import AnalysisError

JAN1 = dt.date(2022, 1, 1)
JAN31 = dt.date(2022, 1, 31)


class TestIterators:
    def test_iter_days_inclusive(self):
        days = list(iter_days(JAN1, dt.date(2022, 1, 3)))
        assert len(days) == 3
        assert days[0] == JAN1 and days[-1] == dt.date(2022, 1, 3)

    def test_iter_days_rejects_reversed(self):
        with pytest.raises(AnalysisError):
            list(iter_days(JAN31, JAN1))

    def test_iter_months_crosses_year(self):
        months = list(iter_months((2021, 11), (2022, 2)))
        assert months == [(2021, 11), (2021, 12), (2022, 1), (2022, 2)]

    def test_month_of(self):
        assert month_of(dt.date(2022, 4, 22)) == (2022, 4)


class TestDailySeries:
    def test_zeros_and_indexing(self):
        s = DailySeries.zeros(JAN1, JAN31)
        assert len(s) == 31
        assert s[JAN1] == 0.0
        s[JAN1] = 5.0
        assert s[JAN1] == 5.0

    def test_add_accumulates(self):
        s = DailySeries.zeros(JAN1, JAN31)
        s.add(JAN1)
        s.add(JAN1, 2.0)
        assert s[JAN1] == 3.0

    def test_out_of_span_raises(self):
        s = DailySeries.zeros(JAN1, JAN31)
        with pytest.raises(AnalysisError):
            s[dt.date(2022, 2, 1)]

    def test_contains(self):
        s = DailySeries.zeros(JAN1, JAN31)
        assert JAN1 in s
        assert dt.date(2021, 12, 31) not in s

    def test_from_mapping(self):
        s = DailySeries.from_mapping({JAN1: 3.0, JAN31: 7.0})
        assert s.start == JAN1 and s.end == JAN31
        assert s[dt.date(2022, 1, 15)] == 0.0

    def test_from_empty_mapping_needs_span(self):
        with pytest.raises(AnalysisError):
            DailySeries.from_mapping({})
        s = DailySeries.from_mapping({}, start=JAN1, end=JAN31)
        assert len(s) == 31

    def test_top_peaks_respects_separation(self):
        s = DailySeries.zeros(JAN1, JAN31)
        s[dt.date(2022, 1, 10)] = 100
        s[dt.date(2022, 1, 11)] = 90  # neighbour must be suppressed
        s[dt.date(2022, 1, 25)] = 80
        peaks = s.top_peaks(2, min_separation_days=7)
        days = [d for d, _ in peaks]
        assert dt.date(2022, 1, 10) in days
        assert dt.date(2022, 1, 25) in days
        assert dt.date(2022, 1, 11) not in days

    def test_weekly_average(self):
        s = DailySeries.zeros(JAN1, dt.date(2022, 1, 14))  # exactly 2 weeks
        for day, _ in s.items():
            s[day] = 1.0
        assert s.weekly_average() == pytest.approx(7.0)

    def test_monthly_rollup(self):
        s = DailySeries.zeros(JAN1, dt.date(2022, 2, 28))
        s[JAN1] = 10
        s[dt.date(2022, 2, 1)] = 20
        monthly = s.monthly("sum")
        assert monthly[(2022, 1)] == 10
        assert monthly[(2022, 2)] == 20

    def test_monthly_rejects_unknown_reducer(self):
        s = DailySeries.zeros(JAN1, JAN31)
        with pytest.raises(AnalysisError):
            s.monthly("max")

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_length_matches_span(self, n_days):
        end = JAN1 + dt.timedelta(days=n_days - 1)
        s = DailySeries.zeros(JAN1, end)
        assert len(s) == n_days
        assert len(s.days()) == n_days


class TestMonthlySeries:
    def test_indexing_roundtrip(self):
        s = MonthlySeries.zeros((2021, 1), (2021, 12))
        s[(2021, 6)] = 42.0
        assert s[(2021, 6)] == 42.0
        assert len(s) == 12

    def test_slice(self):
        s = MonthlySeries.from_mapping({(2021, m): float(m) for m in range(1, 13)})
        sub = s.slice((2021, 3), (2021, 5))
        assert len(sub) == 3
        assert sub[(2021, 4)] == 4.0

    def test_membership_and_index_across_a_year_boundary(self):
        s = MonthlySeries.from_mapping(
            {(2021, 11): 1.0, (2021, 12): 2.0, (2022, 1): 3.0, (2022, 2): 4.0}
        )
        for month, value in zip(s.months(), (1.0, 2.0, 3.0, 4.0)):
            assert month in s
            assert s[month] == value
        for month in ((2021, 10), (2022, 3), (2021, 13), (2022, 0),
                      (2021, 0), (2022, 13)):
            assert month not in s
            with pytest.raises(AnalysisError, match="outside span"):
                s[month]
            with pytest.raises(AnalysisError, match="outside span"):
                s[month] = 0.0

    def test_slice_rejects_out_of_span(self):
        s = MonthlySeries.zeros((2021, 1), (2021, 3))
        with pytest.raises(AnalysisError):
            s.slice((2020, 12), (2021, 2))

    def test_trend_sign(self):
        rising = MonthlySeries.from_mapping(
            {(2021, m): float(m) for m in range(1, 7)}
        )
        falling = MonthlySeries.from_mapping(
            {(2021, m): float(-m) for m in range(1, 7)}
        )
        assert rising.trend() > 0
        assert falling.trend() < 0

    def test_trend_ignores_nan(self):
        s = MonthlySeries.zeros((2021, 1), (2021, 4))
        s[(2021, 1)] = 1.0
        s[(2021, 4)] = 4.0
        assert s.trend() == pytest.approx(1.0)

    def test_trend_needs_two_points(self):
        s = MonthlySeries.zeros((2021, 1), (2021, 3))
        s[(2021, 2)] = 1.0
        with pytest.raises(AnalysisError):
            s.trend()


class TestAlign:
    def test_align_drops_nan_months(self):
        a = MonthlySeries.from_mapping({(2021, 1): 1.0, (2021, 2): 2.0})
        b = MonthlySeries.zeros((2021, 1), (2021, 2))
        b[(2021, 1)] = 10.0  # Feb stays NaN
        months, av, bv = align_series(a, b)
        assert months == [(2021, 1)]
        assert av.tolist() == [1.0]
        assert bv.tolist() == [10.0]

    def test_align_disjoint_spans(self):
        a = MonthlySeries.from_mapping({(2021, 1): 1.0})
        b = MonthlySeries.from_mapping({(2022, 1): 1.0})
        months, av, bv = align_series(a, b)
        assert months == [] and len(av) == 0 and len(bv) == 0
