"""Tests for continuous USaaS monitoring."""

import datetime as dt

import numpy as np
import pytest

from repro.core.signals import ImplicitSignal, SignalSeries
from repro.core.usaas.monitoring import watch_metric
from repro.engagement.early_warning import DriftDetector
from repro.errors import AnalysisError
from repro.rng import derive

START = dt.datetime(2022, 1, 1, 12)


def series_with_regression(rng, n_days=40, onset=25, per_day=150,
                           mean=75.0, drop=10.0):
    signals = []
    for day in range(n_days):
        value_mean = mean - (drop if day >= onset else 0.0)
        for v in rng.normal(value_mean, 12.0, size=per_day):
            signals.append(ImplicitSignal(
                START + dt.timedelta(days=day), "starlink", "presence",
                float(np.clip(v, 0, 100)),
            ))
    return SignalSeries(signals)


class TestWatchMetric:
    def test_alarm_shortly_after_onset(self):
        series = series_with_regression(derive(61, "mon"))
        alarms = watch_metric(series, "presence")
        assert alarms
        first = alarms[0]
        onset_date = (START + dt.timedelta(days=25)).date()
        assert onset_date <= first.day <= onset_date + dt.timedelta(days=3)
        assert first.z_score < -2
        assert first.n_signals == 150

    def test_no_alarm_on_stable_series(self):
        series = series_with_regression(derive(62, "mon"), drop=0.0)
        assert watch_metric(series, "presence") == []

    def test_rearm_produces_multiple_episodes(self):
        rng = derive(63, "mon")
        signals = []
        for day in range(60):
            degraded = 20 <= day < 25 or 45 <= day < 50
            mean = 60.0 if degraded else 75.0
            for v in rng.normal(mean, 10.0, size=150):
                signals.append(ImplicitSignal(
                    START + dt.timedelta(days=day), "n", "presence",
                    float(np.clip(v, 0, 100)),
                ))
        alarms = watch_metric(SignalSeries(signals), "presence", rearm=True)
        episode_days = {a.day for a in alarms}
        assert any(d.day >= 21 and d.month == 1 for d in episode_days)
        assert len(alarms) >= 2

    def test_no_rearm_single_alarm(self):
        series = series_with_regression(derive(64, "mon"))
        alarms = watch_metric(series, "presence", rearm=False)
        assert len(alarms) == 1

    def test_unknown_metric_raises(self):
        series = series_with_regression(derive(65, "mon"))
        with pytest.raises(AnalysisError):
            watch_metric(series, "smiles")

    def test_custom_detector_direction(self):
        rng = derive(66, "mon")
        series = series_with_regression(rng, drop=-15.0)  # a rise
        rises = watch_metric(
            series, "presence", DriftDetector(direction="rise")
        )
        assert rises


class TestKfoldPredictor:
    def test_kfold_runs(self, small_dataset):
        from repro.prediction import kfold_evaluate

        report = kfold_evaluate(small_dataset.participants(), k=4)
        assert report.n_test == len(small_dataset.rated_participants())
        assert -1 <= report.correlation <= 1
        assert report.mae > 0

    def test_kfold_deterministic(self, small_dataset):
        from repro.prediction import kfold_evaluate

        a = kfold_evaluate(small_dataset.participants(), seed=3)
        b = kfold_evaluate(small_dataset.participants(), seed=3)
        assert a.mae == b.mae

    def test_kfold_rejects_small_k(self, small_dataset):
        from repro.prediction import kfold_evaluate
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            kfold_evaluate(small_dataset.participants(), k=1)
