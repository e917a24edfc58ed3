"""Tests for repro.core.signals."""

import datetime as dt

import pytest

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    Signal,
    SignalKind,
    SignalSeries,
)
from repro.errors import SchemaError

TS = dt.datetime(2022, 3, 1, 10, 0)


def make_signal(metric="presence", value=80.0, **attrs):
    return ImplicitSignal(TS, "starlink", metric, value, service="teams", **attrs)


class TestSignal:
    def test_constructors_set_kind(self):
        assert make_signal().kind is SignalKind.IMPLICIT
        assert ExplicitSignal(TS, "starlink", "rating", 4.0).kind is SignalKind.EXPLICIT

    def test_attrs_sorted_and_readable(self):
        s = make_signal(platform="ios", country="US")
        assert s.attrs == (("country", "US"), ("platform", "ios"))
        assert list(SignalSeries([s]).filter(platform="ios", country="US")) == [s]
        assert len(SignalSeries([s]).filter(platform="android")) == 0

    def test_requires_network_and_metric(self):
        with pytest.raises(SchemaError):
            Signal(SignalKind.IMPLICIT, TS, "", "m", 1.0)
        with pytest.raises(SchemaError):
            Signal(SignalKind.IMPLICIT, TS, "net", "", 1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(SchemaError):
            Signal(SignalKind.IMPLICIT, TS, "net", "m", 1.0, weight=-1)

    def test_date_property(self):
        assert make_signal().date == dt.date(2022, 3, 1)


class TestSignalSeries:
    def test_append_and_len(self):
        series = SignalSeries()
        series.append(make_signal())
        assert len(series) == 1

    def test_append_rejects_non_signal(self):
        with pytest.raises(SchemaError):
            SignalSeries().append("not a signal")

    def test_constructor_rejects_non_signal(self):
        with pytest.raises(SchemaError, match="expected Signal, got str"):
            SignalSeries([make_signal(), "x"])

    def test_filter_by_kind_network_metric(self):
        series = SignalSeries([
            make_signal("presence"),
            make_signal("cam_on"),
            ExplicitSignal(TS, "starlink", "rating", 5.0),
            ImplicitSignal(TS, "fiber", "presence", 90.0),
        ])
        assert len(series.filter(metric="presence")) == 2
        assert len(series.filter(network="starlink", metric="presence")) == 1
        assert len(series.filter(kind=SignalKind.EXPLICIT)) == 1

    def test_filter_by_time(self):
        early = ImplicitSignal(TS, "n", "m", 1.0)
        late = ImplicitSignal(TS + dt.timedelta(days=5), "n", "m", 2.0)
        series = SignalSeries([early, late])
        assert len(series.filter(start=TS + dt.timedelta(days=1))) == 1
        assert len(series.filter(end=TS + dt.timedelta(days=1))) == 1

    def test_filter_by_attr(self):
        series = SignalSeries([
            make_signal(platform="ios"),
            make_signal(platform="windows"),
        ])
        assert len(series.filter(platform="ios")) == 1

    def test_metrics_sorted_unique(self):
        series = SignalSeries([make_signal("b"), make_signal("a"), make_signal("a")])
        assert series.metrics() == ["a", "b"]

    def test_weighted_mean(self):
        series = SignalSeries([
            ImplicitSignal(TS, "n", "m", 10.0, weight=1.0),
            ImplicitSignal(TS, "n", "m", 20.0, weight=3.0),
        ])
        assert series.weighted_mean() == pytest.approx(17.5)

    def test_weighted_mean_rejects_empty(self):
        with pytest.raises(SchemaError):
            SignalSeries().weighted_mean()

    def test_weighted_mean_rejects_all_zero_weights(self):
        series = SignalSeries([ImplicitSignal(TS, "n", "m", 1.0, weight=0.0)])
        with pytest.raises(SchemaError):
            series.weighted_mean()

    def test_daily_mean_groups_by_date(self):
        other_day = TS + dt.timedelta(days=1)
        series = SignalSeries([
            ImplicitSignal(TS, "n", "m", 10.0),
            ImplicitSignal(TS.replace(hour=20), "n", "m", 30.0),
            ImplicitSignal(other_day, "n", "m", 50.0),
        ])
        days, means = series._daily()
        assert days.tolist() == [TS.toordinal(), other_day.toordinal()]
        assert means.tolist() == pytest.approx([20.0, 50.0])
