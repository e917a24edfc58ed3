"""F6 — Fig. 6: day-wise outage-keyword occurrences in negative threads.

Paper shapes:
* the two largest spikes land on 7 Jan '22 and 30 Aug '22 (both had
  press coverage);
* numerous shorter peaks correspond to local transient outages that were
  never reported anywhere;
* the 22 Apr '22 unreported outage is clearly present but below the top
  two.

Ablation: drop the paper's negative-sentiment filter and measure the
false-positive inflation ("no outages since I got the dish!" posts).
"""

import datetime as dt

import pytest

from benchmarks.conftest import emit
from benchmarks.util import timed
from repro.analysis.outage_monitor import outage_keyword_series
from repro.io.tables import format_table

HEADLINE_DAYS = (dt.date(2022, 1, 7), dt.date(2022, 8, 30))
UNREPORTED_DAY = dt.date(2022, 4, 22)


@pytest.fixture(scope="module")
def series(bench_corpus, bench_timeline):
    return outage_keyword_series(bench_corpus)


class TestFig6:
    def test_bench_fig6_series(self, benchmark, bench_corpus, bench_timeline):
        series = timed(benchmark, lambda: outage_keyword_series(bench_corpus))
        top = series.occurrences.top_peaks(6)
        emit("fig6_outages", format_table(
            ["day", "keyword occurrences", "threads"],
            [[str(d), int(v), int(series.threads[d])] for d, v in top],
            title="Fig. 6 — top outage-keyword days in negative threads "
                  "(paper: 2022-01-07 and 2022-08-30 are the largest)",
        ))

    def test_top_two_spikes(self, benchmark, series):
        spikes = timed(benchmark, lambda: series.top_spike_days(2))
        assert {d for d, _ in spikes} == set(HEADLINE_DAYS)

    def test_unreported_outage_visible(self, benchmark, series):
        values = timed(benchmark, lambda: (
            series.occurrences[UNREPORTED_DAY],
            min(v for _, v in series.top_spike_days(2)),
        ))
        april, top2_floor = values
        assert 0 < april < top2_floor

    def test_transient_peaks_numerous(self, benchmark, series):
        floor_value = min(v for _, v in series.top_spike_days(2))
        transients = timed(benchmark, lambda: series.transient_peak_days(
            spike_threshold=floor_value * 0.3, floor=3.0
        ))
        emit("fig6_transients",
             f"Fig. 6 — transient outage-keyword days (floor<count<30% of "
             f"headline spike): {len(transients)} days across the span")
        assert len(transients) > 50

    def test_ablation_negative_filter(self, benchmark, bench_corpus,
                                      bench_timeline):
        def run():
            filtered = outage_keyword_series(
                bench_corpus, negative_only=True
            )
            unfiltered = outage_keyword_series(
                bench_corpus, negative_only=False
            )
            return filtered, unfiltered

        filtered, unfiltered = timed(benchmark, run)
        false_positive_mass = (
            unfiltered.occurrences.values.sum()
            - filtered.occurrences.values.sum()
        )
        inflation = false_positive_mass / filtered.occurrences.values.sum()
        emit(
            "fig6_ablation_filter",
            "Fig. 6 ablation — negative-sentiment filter\n"
            f"  occurrences with filter   : {int(filtered.occurrences.values.sum())}\n"
            f"  occurrences without filter: {int(unfiltered.occurrences.values.sum())}\n"
            f"  false-positive inflation  : {100 * inflation:.1f} %",
        )
        assert inflation > 0.02
