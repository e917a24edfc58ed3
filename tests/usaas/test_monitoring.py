"""Tests for continuous USaaS monitoring."""

import datetime as dt

import numpy as np
import pytest

from repro.core.signals import ImplicitSignal, SignalSeries
from repro.core.usaas import telemetry_signals
from repro.core.usaas.monitoring import watch_metric
from repro.engagement.early_warning import DriftDetector
from repro.errors import AnalysisError
from repro.rng import derive
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.meetings import MeetingScheduler

from tests.usaas.oracle import telemetry_signals_records, watch_metric_records

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


#: The staged outage of ``examples/outage_cross_validation.py``.
OUTAGE_DAY = dt.date(2022, 1, 7)


@pytest.fixture(scope="module", params=(101, 202, 303))
def outage_calls(request):
    return CallDatasetGenerator(
        GeneratorConfig(n_calls=300, seed=request.param, workers=1,
                        outage_days={OUTAGE_DAY: 0.9}),
        scheduler=MeetingScheduler(
            span_start=dt.date(2021, 12, 1), span_end=dt.date(2022, 1, 31)
        ),
    ).generate()


class TestWatchMetricColumns:
    """``watch_metric`` reads columns; its per-``Signal`` loop is the oracle."""

    DETECTORS = (
        # The example's drop-off detector, then looser ones that alarm often.
        dict(direction="rise", warmup_days=21, consecutive_days=1),
        dict(warmup_days=14, consecutive_days=1, z_threshold=2.0),
        dict(direction="both", warmup_days=7, consecutive_days=1, z_threshold=2.0),
    )

    def test_alarms_equal_the_record_loop(self, outage_calls):
        series = telemetry_signals(outage_calls, network="starlink")
        records = list(telemetry_signals_records(outage_calls, network="starlink"))
        fired = 0
        for metric in ("presence", "cam_on", "mic_on", "drop_off", "rating"):
            for settings in self.DETECTORS:
                for rearm in (True, False):
                    got = watch_metric(
                        series, metric, DriftDetector(**settings), rearm
                    )
                    want = watch_metric_records(
                        records, metric, DriftDetector(**settings), rearm
                    )
                    assert got == want, (metric, settings, rearm)
                    fired += len(got)
        assert fired  # the grid raises alarms, so the pin is not vacuous

    def test_views_and_appended_signals_read_the_same(self, outage_calls):
        records = list(telemetry_signals_records(outage_calls, network="starlink"))
        detector = self.DETECTORS[2]
        for series, want in (
            (SignalSeries(records), records),
            (telemetry_signals(outage_calls, network="starlink").filter(
                platform="windows_pc"),
             [s for s in records if s.attr("platform") == "windows_pc"]),
        ):
            assert watch_metric(series, "drop_off", DriftDetector(**detector)) == (
                watch_metric_records(want, "drop_off", DriftDetector(**detector))
            )
