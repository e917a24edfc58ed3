"""U2 — §5 corroboration: implicit signals confirm social reports.

Paper: *"User actions could be used to corroborate the user posts on
social media."*  The 7 Jan '22 outage is injected into the *network
layer* of a call simulation (no behavioural component knows about it) and
simultaneously plays out in the social corpus via the event calendar.
Both monitoring pipelines must independently flag the same day.
"""

import datetime as dt

import pytest

from benchmarks.conftest import emit
from benchmarks.util import timed
from repro.analysis import outage_keyword_series
from repro.core.usaas import telemetry_signals, watch_metric
from repro.engagement.early_warning import DriftDetector
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from repro.telemetry.meetings import MeetingScheduler

OUTAGE_DAY = dt.date(2022, 1, 7)
SPAN = (dt.date(2021, 12, 1), dt.date(2022, 1, 31))


@pytest.fixture(scope="module")
def implicit_alarms():
    scheduler = MeetingScheduler(span_start=SPAN[0], span_end=SPAN[1])
    dataset = CallDatasetGenerator(
        GeneratorConfig(n_calls=2500, seed=13,
                        outage_days={OUTAGE_DAY: 0.9}),
        scheduler=scheduler,
    ).generate()
    signals = telemetry_signals(dataset, network="starlink")
    return watch_metric(
        signals, "drop_off",
        DriftDetector(direction="rise", warmup_days=21, consecutive_days=1),
    )


@pytest.fixture(scope="module")
def social_spike():
    corpus = CorpusGenerator(CorpusConfig(
        seed=13, span_start=SPAN[0], span_end=SPAN[1],
        author_pool_size=800,
    )).generate()
    outages = outage_keyword_series(corpus)
    return outages.top_spike_days(1)[0]


class TestU2:
    def test_bench_u2_cross_validation(self, benchmark, implicit_alarms,
                                       social_spike):
        result = timed(benchmark, lambda: (
            {a.day for a in implicit_alarms}, social_spike[0]
        ))
        implicit_days, social_day = result
        emit(
            "u2_corroboration",
            "U2 — §5 corroboration of a social-reported outage\n"
            f"  implicit drop-off alarms : {sorted(implicit_days)}\n"
            f"  social keyword spike     : {social_day} "
            f"({int(social_spike[1])} occurrences)\n"
            f"  corroborated             : "
            f"{'yes' if social_day in implicit_days else 'NO'}",
        )
        assert social_day == OUTAGE_DAY
        assert OUTAGE_DAY in implicit_days

    def test_implicit_alarm_is_specific(self, benchmark, implicit_alarms):
        """The incident day alarms; quiet days don't flood the monitor."""
        alarms = timed(benchmark, lambda: implicit_alarms)
        assert 1 <= len(alarms) <= 4
        assert all(a.day >= OUTAGE_DAY for a in alarms)

    def test_no_injection_no_alarm(self, benchmark):
        """Control: without the injected incident, no drop-off alarm."""
        def run():
            scheduler = MeetingScheduler(span_start=SPAN[0], span_end=SPAN[1])
            dataset = CallDatasetGenerator(
                GeneratorConfig(n_calls=1500, seed=13),
                scheduler=scheduler,
            ).generate()
            signals = telemetry_signals(dataset, network="starlink")
            return watch_metric(
                signals, "drop_off",
                DriftDetector(direction="rise", warmup_days=21,
                              consecutive_days=1),
            )

        alarms = timed(benchmark, run)
        assert alarms == []
