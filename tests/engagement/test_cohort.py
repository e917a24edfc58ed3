"""Tests for cohort filtering and condition windows."""

import datetime as dt

import pytest

from repro.engagement.cohort import (
    PAPER_CONTROL_WINDOWS,
    CohortFilter,
    ConditionWindow,
    control_windows_except,
)
from repro.errors import AnalysisError
from repro.perf.columnar import participant_columns
from tests.engagement.oracle import apply_windows
from tests.telemetry.test_schema import network_agg, participant


class TestCohortFilter:
    def test_keeps_only_cohort_calls(self, small_dataset):
        cohort = CohortFilter().apply(small_dataset)
        for call in cohort:
            assert call.is_enterprise
            assert call.start.weekday() < 5
            assert 9 <= call.start.hour < 20
            assert call.size >= 3
            assert set(call.countries) <= {"US"}

    def test_actually_removes_something(self, small_dataset):
        cohort = CohortFilter().apply(small_dataset)
        assert 0 < len(cohort) < len(small_dataset)

    def test_permissive_keeps_everything(self, small_dataset):
        permissive = CohortFilter(
            enterprise_only=False, business_hours_only=False,
            weekdays_only=False, min_participants=1, countries=None,
        )
        assert len(permissive.apply(small_dataset)) == len(small_dataset)

    def test_rejects_bad_hours(self):
        with pytest.raises(AnalysisError):
            CohortFilter(start_hour=20, end_hour=9)

    def test_rejects_bad_min_participants(self):
        with pytest.raises(AnalysisError):
            CohortFilter(min_participants=0)


class TestConditionWindow:
    def test_contains(self):
        window = ConditionWindow("latency_ms", 0, 40)
        cols = participant_columns([participant()])  # latency 20
        assert cols.window_mask([window]).tolist() == [True]

    def test_excludes(self):
        window = ConditionWindow("latency_ms", 0, 10)
        cols = participant_columns([participant()])
        assert cols.window_mask([window]).tolist() == [False]

    def test_rejects_unknown_metric(self):
        with pytest.raises(AnalysisError):
            ConditionWindow("rtt", 0, 1)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(AnalysisError):
            ConditionWindow("latency_ms", 10, 0)


class TestPaperWindows:
    def test_paper_values(self):
        """§3.2's exact control windows."""
        assert PAPER_CONTROL_WINDOWS["latency_ms"].high == 40.0
        assert PAPER_CONTROL_WINDOWS["loss_pct"].high == 0.2
        assert PAPER_CONTROL_WINDOWS["jitter_ms"].high == 5.0
        assert PAPER_CONTROL_WINDOWS["bandwidth_mbps"].low == 3.0
        assert PAPER_CONTROL_WINDOWS["bandwidth_mbps"].high == 4.0

    def test_except_excludes_target(self):
        windows = control_windows_except("latency_ms")
        assert len(windows) == 3
        assert all(w.metric != "latency_ms" for w in windows)

    def test_except_rejects_unknown(self):
        with pytest.raises(AnalysisError):
            control_windows_except("rtt")


class TestApplyWindows:
    def test_conjunction(self):
        # participant() carries 20.0 for every metric aggregate.
        windows = [
            ConditionWindow("latency_ms", 0, 40),
            ConditionWindow("loss_pct", 0, 30),
        ]
        kept = apply_windows([participant()], windows)
        assert len(kept) == 1
        tight = [ConditionWindow("latency_ms", 0, 5)]
        assert apply_windows([participant()], tight) == []
        # The columnar mask the curves use agrees with the oracle.
        cols = participant_columns([participant()])
        assert cols.window_mask(windows).tolist() == [True]
        assert cols.window_mask(tight).tolist() == [False]
