"""Gap-filling edge-case tests across modules."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import AnalysisError


class TestTimelineEdges:
    def test_daily_series_custom_fill(self):
        from repro.core.timeline import DailySeries

        series = DailySeries.zeros(
            dt.date(2022, 1, 1), dt.date(2022, 1, 3), fill=7.0
        )
        assert series[dt.date(2022, 1, 2)] == 7.0

    def test_monthly_series_nan_fill_default(self):
        from repro.core.timeline import MonthlySeries

        series = MonthlySeries.zeros((2022, 1), (2022, 3))
        assert np.isnan(series[(2022, 2)])

    def test_monthly_items_order(self):
        from repro.core.timeline import MonthlySeries

        series = MonthlySeries.from_mapping(
            {(2021, 12): 1.0, (2022, 1): 2.0}
        )
        months = [m for m, _ in series.items()]
        assert months == [(2021, 12), (2022, 1)]

    def test_single_day_series(self):
        from repro.core.timeline import DailySeries

        day = dt.date(2022, 4, 22)
        series = DailySeries.zeros(day, day)
        series.add(day, 3)
        assert series.weekly_average() == pytest.approx(21.0)
        assert series.top_peaks(1) == [(day, 3.0)]

    def test_top_peaks_more_than_available(self):
        from repro.core.timeline import DailySeries

        series = DailySeries.zeros(dt.date(2022, 1, 1), dt.date(2022, 1, 2))
        series[dt.date(2022, 1, 1)] = 5
        peaks = series.top_peaks(10, min_separation_days=1)
        assert len(peaks) == 2  # span only has two days


class TestFig1ResultEdges:
    def test_slope_requires_two_bins(self, small_dataset):
        from repro.engagement import CohortFilter, fig1_curves

        pool = list(CohortFilter.permissive().apply(small_dataset)
                    .participants())
        result = fig1_curves(pool, use_control_windows=False,
                             min_bin_count=1)
        with pytest.raises(AnalysisError):
            result.slope("latency_ms", "mic_on_pct", 299.9, 300.0)


class TestSignalSeriesEdges:
    def test_values_listing(self):
        from repro.core.signals import ImplicitSignal, SignalSeries

        ts = dt.datetime(2022, 1, 1)
        series = SignalSeries([
            ImplicitSignal(ts, "n", "m", 1.0),
            ImplicitSignal(ts, "n", "m", 2.0),
        ])
        assert series.values() == [1.0, 2.0]

    def test_filter_chaining(self):
        from repro.core.signals import ImplicitSignal, SignalSeries

        ts = dt.datetime(2022, 1, 1)
        series = SignalSeries([
            ImplicitSignal(ts, "a", "m", 1.0, platform="ios"),
            ImplicitSignal(ts, "a", "m", 2.0, platform="win"),
            ImplicitSignal(ts, "b", "m", 3.0, platform="ios"),
        ])
        assert len(series.filter(network="a").filter(platform="ios")) == 1


class TestIoEdges:
    def test_format_table_int_cells(self):
        from repro.io.tables import format_table

        text = format_table(["n"], [[42]])
        assert "42" in text and "42.00" not in text


class TestOcrEdges:
    def test_reading_order_row_grouping(self):
        from repro.ocr.render import PlacedToken, Screenshot

        shot = Screenshot(width=100, height=100, tokens=(
            PlacedToken("b", 50, 10), PlacedToken("a", 10, 12),
            PlacedToken("c", 10, 40),
        ))
        ordered = [t.text for t in shot.reading_order()]
        assert ordered == ["a", "b", "c"]  # same 8px row: left-to-right

    def test_extracted_report_validation(self):
        from repro.errors import ExtractionError
        from repro.ocr.fields import ExtractedReport

        with pytest.raises(ExtractionError):
            ExtractedReport(provider="ookla", download_mbps=-1,
                            upload_mbps=None, latency_ms=None,
                            confidence=0.5)


class TestCapacityEdges:
    def test_soft_min_symmetric(self):
        from repro.starlink.capacity import CapacityModel

        model = CapacityModel()
        assert model._soft_min(40, 80) == pytest.approx(
            model._soft_min(80, 40)
        )

    def test_utilisation_series_populated(self):
        from repro.starlink.capacity import CapacityModel

        utilisation = CapacityModel().utilisation()
        assert not np.isnan(utilisation.values).any()
