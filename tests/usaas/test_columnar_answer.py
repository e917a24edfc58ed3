"""Equality pins: the columnar answer path against its record-loop oracles.

Every read step of ``UsaasService.answer`` runs on ``SignalSeries``
columns; ``tests/usaas/oracle.py`` keeps the per-``Signal`` loops they
replaced.  Each test here asserts ``==`` — on whole ``UsaasReport``s,
floats included — between the two, over seeds 101/202/303.
"""

import datetime as dt

import pytest

from repro.core.signals import (
    ExplicitSignal,
    ImplicitSignal,
    Signal,
    SignalKind,
    SignalSeries,
    _Columns,
)
from repro.core.usaas import (
    BiasCorrector,
    PrivacyGuard,
    UsaasQuery,
    UsaasService,
    correlate_series,
    social_signals,
    telemetry_signals,
)
from repro.core.usaas.privacy import scrub_author
from repro.errors import AnalysisError, PrivacyError, ReproError, SchemaError
from repro.integrity.trust import score_signal_units
from repro.resilience import FaultPlan, ManualClock, ResilienceConfig, RetryPolicy
from repro.resilience.faults import ALWAYS_FAIL, DataFaultSpec
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

from tests.usaas.oracle import (
    OracleService,
    assert_scrubbed_records,
    bias_records,
    check_records,
    correlate_records,
    daily_mean_records,
    distinct_users_records,
    filter_records,
    score_signal_units_records,
    weighted_mean_records,
)

SEEDS = (101, 202, 303)
NETWORK = "starlink"


def _days(first, last):
    return dict(
        start=dt.datetime.combine(first, dt.time.min),
        end=dt.datetime.combine(last, dt.time.max),
    )


QUERIES = (
    UsaasQuery(network=NETWORK, service="teams"),
    UsaasQuery(network=NETWORK, service="teams", breakdown="platform"),
    UsaasQuery(network=NETWORK, breakdown="country"),
    UsaasQuery(network=NETWORK, breakdown="user"),
    UsaasQuery(network=NETWORK, service="teams",
               explicit_metrics=("sentiment_polarity", "rating")),
    UsaasQuery(network=NETWORK,
               implicit_metrics=("presence", "drop_off"),
               explicit_metrics=("reported_downlink_mbps", "rating")),
    UsaasQuery(network=NETWORK, service="teams",
               **_days(dt.date(2022, 1, 1), dt.date(2022, 3, 31))),
    UsaasQuery(network=NETWORK, breakdown="platform",
               **_days(dt.date(2022, 1, 1), dt.date(2022, 1, 31))),
    UsaasQuery(network=NETWORK, service="teams", breakdown="country",
               **_days(dt.date(2022, 2, 1), dt.date(2022, 2, 14))),
    UsaasQuery(network=NETWORK, min_users=3, breakdown="platform",
               **_days(dt.date(2022, 4, 1), dt.date(2022, 4, 30))),
    UsaasQuery(network=NETWORK, min_users=10**6),
    UsaasQuery(network="no-such-isp"),
)


class Inputs:
    def __init__(self, seed):
        calls = CallDatasetGenerator(GeneratorConfig(
            n_calls=60, seed=seed, mos_sample_rate=0.3, workers=1,
        )).generate()
        plan = FaultPlan(seed)
        calls = plan.data_faults("pins", DataFaultSpec(
            fraud_fraction=0.05)).contaminate_calls(calls).dataset
        corpus = CorpusGenerator(CorpusConfig(
            seed=seed, span_start=dt.date(2022, 1, 1),
            span_end=dt.date(2022, 4, 30), posts_per_week=93.0, workers=1,
        )).generate()
        corpus = plan.data_faults("pins", DataFaultSpec(
            brigade_fraction=0.05)).contaminate_corpus(corpus).corpus
        other = CallDatasetGenerator(GeneratorConfig(
            n_calls=40, seed=seed + 1, workers=1,
        )).generate()
        self.calls, self.corpus = calls, corpus
        self.implicit = list(telemetry_signals(calls, network=NETWORK))
        self.explicit = list(social_signals(corpus, network=NETWORK))
        self.fiber = list(telemetry_signals(other, network="fiber"))
        self.pool = self.implicit + self.explicit


@pytest.fixture(scope="module", params=SEEDS)
def inputs(request):
    return Inputs(request.param)


def _services(sources, **config):
    """A columnar service and its oracle twin over fresh copies of ``sources``."""
    out = []
    for cls in (UsaasService, OracleService):
        clock = ManualClock()
        service = cls(
            resilience=ResilienceConfig(**config) if config else None,
            clock=clock,
        )
        for name, make in sources.items():
            service.register_source(name, make(clock))
        out.append(service)
    return out


def _fixed(signals):
    series = SignalSeries(signals)
    return lambda clock: (lambda: series)


def _daily_mean(series):
    """The per-day weighted means the correlator joins, keyed by date."""
    days, means = series._daily()
    return dict(zip(map(dt.date.fromordinal, days.tolist()), means.tolist()))


def _outcome(call):
    try:
        return call()
    except ReproError as exc:
        return type(exc), str(exc)


def _assert_same_answers(columnar, oracle, queries=QUERIES):
    for query in queries:
        got = _outcome(lambda: columnar.answer(query))
        want = _outcome(lambda: oracle.answer(query))
        assert got == want, query


class TestAnswerEquality:
    def test_query_grid(self, inputs):
        columnar, oracle = _services({
            "telemetry": _fixed(inputs.implicit),
            "social": _fixed(inputs.explicit),
        })
        _assert_same_answers(columnar, oracle)

    def test_compare(self, inputs):
        columnar, oracle = _services({
            "telemetry": _fixed(inputs.implicit),
            "fiber": _fixed(inputs.fiber),
            "social": _fixed(inputs.explicit),
        })
        for args in (
            ("starlink", "fiber", "teams"),
            ("fiber", "starlink", None, ("presence", "drop_off", "rating")),
            ("starlink", "no-such-isp"),
        ):
            got = _outcome(lambda: columnar.compare(*args))
            want = _outcome(lambda: oracle.compare(*args))
            assert got == want, args

    def test_failing_and_stale_sources(self, inputs):
        def flaky(clock):
            plan = FaultPlan(seed=7, clock=clock)
            return plan.wrap_source(
                "flaky", lambda: SignalSeries(inputs.implicit[:50]), ALWAYS_FAIL
            )

        def fails_after_first(clock):
            calls = []
            series = SignalSeries(inputs.explicit)

            def source():
                calls.append(1)
                if len(calls) > 1:
                    raise SchemaError("feed went away")
                return series
            return source

        columnar, oracle = _services(
            {
                "telemetry": _fixed(inputs.implicit),
                "social": fails_after_first,
                "flaky": flaky,
            },
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, seed=3),
        )
        _assert_same_answers(columnar, oracle, QUERIES[:3])
        for service in (columnar, oracle):
            service.registry.invalidate("social")
        reports = [s.answer(QUERIES[1]) for s in (columnar, oracle)]
        assert reports[0] == reports[1]
        assert reports[0].degraded
        assert "stale: social" in reports[0].summary

    def test_append_after_read(self, inputs):
        cut = len(inputs.implicit) * 3 // 4
        lives = []

        def live(clock):
            series = SignalSeries(inputs.implicit[:cut])
            lives.append(series)
            return lambda: series

        columnar, oracle = _services({
            "telemetry": live, "social": _fixed(inputs.explicit),
        })
        before = [s.answer(QUERIES[1]) for s in (columnar, oracle)]
        assert before[0] == before[1]
        view = lives[0].filter(metric="presence")
        seen = list(view)
        for series, service in zip(lives, (columnar, oracle)):
            series.extend(inputs.implicit[cut:])
            service.registry.invalidate("telemetry")
        after = [s.answer(QUERIES[1]) for s in (columnar, oracle)]
        assert after[0] == after[1]
        assert after[0].n_implicit > before[0].n_implicit
        assert len(view) == len(seen) and list(view) == seen
        assert len(lives[0].filter(metric="presence")) > len(seen)


#: The ten queries of a ``perfbench`` ``report`` pass: the whole span and
#: calendar windows, with and without a breakdown and a service.
REPORT_QUERIES = (
    UsaasQuery(network=NETWORK, service="teams"),
    UsaasQuery(network=NETWORK, service="teams", breakdown="platform"),
    UsaasQuery(network=NETWORK, breakdown="country"),
    UsaasQuery(network=NETWORK, service="teams",
               explicit_metrics=("sentiment_polarity", "rating")),
    UsaasQuery(network=NETWORK, service="teams",
               **_days(dt.date(2022, 1, 1), dt.date(2022, 3, 31))),
    UsaasQuery(network=NETWORK, breakdown="platform",
               **_days(dt.date(2022, 1, 1), dt.date(2022, 1, 31))),
    UsaasQuery(network=NETWORK, service="teams", breakdown="country",
               **_days(dt.date(2022, 2, 1), dt.date(2022, 2, 28))),
    UsaasQuery(network=NETWORK, service="teams",
               **_days(dt.date(2022, 3, 1), dt.date(2022, 3, 31))),
    UsaasQuery(network=NETWORK, breakdown="platform",
               **_days(dt.date(2022, 4, 1), dt.date(2022, 4, 30))),
    UsaasQuery(network=NETWORK, service="teams",
               **_days(dt.date(2022, 2, 1), dt.date(2022, 2, 14))),
)


class TestBornColumnar:
    def test_export_and_answers_build_no_signal_objects(self, inputs, monkeypatch):
        # The exported pools are written straight into their column
        # stores, and answering reads columns only.  Building a Signal
        # (from columns, or by constructor) or encoding Signal objects
        # into columns on the way, the objects-and-back round trip,
        # fails the test.
        def round_trip(*args, **kwargs):
            raise AssertionError("the export went through Signal objects")

        with monkeypatch.context() as patch:
            patch.setattr(_Columns, "_build", round_trip)
            patch.setattr(_Columns, "extend", round_trip)
            patch.setattr(Signal, "__post_init__", round_trip)
            implicit = telemetry_signals(inputs.calls, network=NETWORK)
            explicit = social_signals(inputs.corpus, network=NETWORK)
            service = UsaasService(clock=ManualClock())
            service.register_source("telemetry", lambda: implicit)
            service.register_source("social", lambda: explicit)
            answers = [service.answer(query) for query in REPORT_QUERIES]
        oracle = OracleService(clock=ManualClock())
        oracle.register_source("telemetry", _fixed(inputs.implicit)(None))
        oracle.register_source("social", _fixed(inputs.explicit)(None))
        assert answers == [oracle.answer(query) for query in REPORT_QUERIES]
        assert list(implicit) == inputs.implicit
        assert list(explicit) == inputs.explicit


class TestPrimitives:
    CRITERIA = (
        dict(),
        dict(kind=SignalKind.IMPLICIT, service="teams"),
        dict(kind=SignalKind.EXPLICIT, metric="sentiment_polarity"),
        dict(network="fiber"),
        dict(metric="rating", **_days(dt.date(2022, 2, 1), dt.date(2022, 3, 15))),
        dict(start=dt.datetime(2022, 4, 22, 12)),
        dict(platform="windows_pc"),
        dict(metric="presence", country="US", platform="mac"),
        dict(topic="outage", kind=SignalKind.EXPLICIT),
        dict(nonexistent="x"),
    )

    def test_filter_and_means(self, inputs):
        series = SignalSeries(inputs.pool)
        for criteria in self.CRITERIA:
            view = series.filter(**criteria)
            want = filter_records(inputs.pool, **criteria)
            assert list(view) == want, criteria
            assert list(_daily_mean(view).items()) == list(
                daily_mean_records(want).items()
            )
            if want:
                assert view.weighted_mean() == weighted_mean_records(want)
            nested = view.filter(metric="presence")
            assert list(nested) == filter_records(want, metric="presence")

    @pytest.mark.parametrize("corrector", [
        BiasCorrector(),
        BiasCorrector(per_author_daily_cap=1, weight_cap_quantile=0.5),
        BiasCorrector(per_author_daily_cap=0, weight_cap_quantile=0.9),
        BiasCorrector(per_author_daily_cap=2, weight_cap_quantile=1.0),
    ])
    def test_bias_corrector(self, inputs, corrector):
        series = SignalSeries(inputs.pool)
        got = corrector.apply(series)
        want = bias_records(corrector, inputs.pool)
        assert list(got) == want
        assert list(_daily_mean(got).items()) == list(daily_mean_records(want).items())
        assert got.weighted_mean() == weighted_mean_records(want)
        explicit = got.filter(kind=SignalKind.EXPLICIT)
        assert list(explicit) == filter_records(want, kind=SignalKind.EXPLICIT)

    def test_privacy_guard(self, inputs):
        series = SignalSeries(inputs.pool)
        for criteria in self.CRITERIA:
            view = series.filter(**criteria)
            want = filter_records(inputs.pool, **criteria)
            assert PrivacyGuard().distinct_users(view) == distinct_users_records(want)
            for floor in (1, 10, 10**6):
                guard = PrivacyGuard(floor)
                assert _outcome(lambda: guard.check(view, "x")) == _outcome(
                    lambda: check_records(guard, want, "x")
                )
        raw = inputs.pool[:30] + [
            ImplicitSignal(dt.datetime(2022, 3, 3), NETWORK, "presence", 1.0,
                           user="alice"),
        ] + inputs.pool[30:60]
        assert _outcome(lambda: PrivacyGuard().assert_scrubbed(SignalSeries(raw))) == (
            _outcome(lambda: assert_scrubbed_records(raw))
        )
        PrivacyGuard().assert_scrubbed(series)

    def test_correlate_series(self, inputs):
        a = SignalSeries(inputs.implicit)
        b = SignalSeries(inputs.explicit)
        for metric_a in ("presence", "cam_on", "drop_off", "nothing"):
            for metric_b in ("sentiment_polarity", "rating", "reported_downlink_mbps"):
                for lags, overlap in ((3, 10), (0, 5), (6, 40)):
                    got = _outcome(lambda: correlate_series(
                        a, b, metric_a, metric_b, lags, overlap))
                    want = _outcome(lambda: correlate_records(
                        inputs.implicit, inputs.explicit, metric_a, metric_b,
                        lags, overlap))
                    assert got == want, (metric_a, metric_b, lags, overlap)

    def test_score_signal_units(self, inputs):
        series = SignalSeries(inputs.pool)
        explicit = series.filter(kind=SignalKind.EXPLICIT)
        want = score_signal_units_records(filter_records(
            inputs.pool, kind=SignalKind.EXPLICIT))
        assert score_signal_units(explicit) == want
        assert any(score.flags for score in want.values())
        assert score_signal_units(inputs.pool) == score_signal_units_records(inputs.pool)


class TestEdges:
    ZONE = dt.timezone(dt.timedelta(hours=-5))

    def _aware(self):
        # 22:00 at UTC-5 is 03:00 UTC the next day: the wall clock decides the day.
        base = dt.datetime(2022, 3, 1, 22, tzinfo=self.ZONE)
        return [
            ImplicitSignal(base + dt.timedelta(hours=7 * i), NETWORK, "presence",
                           float(i % 7), weight=1.0 + i % 3,
                           user=scrub_author(f"u{i % 4}"))
            for i in range(40)
        ]

    def test_tz_aware_days_follow_wall_clock(self):
        signals = self._aware()
        series = SignalSeries(signals)
        daily = _daily_mean(series)
        assert list(daily.items()) == list(daily_mean_records(signals).items())
        assert dt.date(2022, 3, 1) in daily
        utc = dt.timezone.utc
        bounds = dict(start=dt.datetime(2022, 3, 3, 4, tzinfo=utc),
                      end=dt.datetime(2022, 3, 6, 1, tzinfo=self.ZONE))
        assert list(series.filter(**bounds)) == filter_records(signals, **bounds)
        corrector = BiasCorrector(per_author_daily_cap=1)
        assert list(corrector.apply(series)) == bias_records(corrector, signals)

    def test_mixing_naive_and_aware_raises_as_before(self):
        naive = [ExplicitSignal(dt.datetime(2022, 3, 2, 9), NETWORK,
                                "rating", 4.0, user=scrub_author("n"))]
        signals = self._aware() + naive
        series = SignalSeries(signals)
        for criteria in (
            dict(start=dt.datetime(2022, 3, 1)),
            dict(end=dt.datetime(2022, 3, 9, tzinfo=self.ZONE)),
            dict(metric="rating", end=dt.datetime(2022, 3, 9, tzinfo=self.ZONE)),
        ):
            with pytest.raises(TypeError):
                filter_records(signals, **criteria)
            with pytest.raises(TypeError):
                series.filter(**criteria)
        # Rows dropped by an earlier criterion are never compared.
        quiet = dict(metric="presence", start=dt.datetime(2022, 3, 2, tzinfo=self.ZONE))
        assert list(series.filter(**quiet)) == filter_records(signals, **quiet)
        assert list(_daily_mean(series).items()) == list(
            daily_mean_records(signals).items()
        )

    def test_bias_cap_counts_unnamed_authors_as_one(self):
        day = dt.datetime(2022, 3, 1, 9)
        signals = [
            ExplicitSignal(day + dt.timedelta(minutes=i), NETWORK, "rating",
                           float(i), **users)
            for i, users in enumerate(
                [{}, {"user": ""}, {"user": "?"}, {"user": "u_a"}] * 3
            )
        ]
        corrector = BiasCorrector(per_author_daily_cap=2)
        kept = list(corrector.apply(SignalSeries(signals)))
        assert kept == bias_records(corrector, signals)
        assert len(kept) == 4

    def test_empty_series(self):
        empty = SignalSeries()
        assert len(empty.filter(metric="presence", platform="ios")) == 0
        assert _daily_mean(empty) == {}
        assert len(BiasCorrector().apply(empty)) == 0
        assert score_signal_units(empty) == {}
        assert PrivacyGuard().distinct_users(empty) == 0
        with pytest.raises(PrivacyError):
            PrivacyGuard().check(empty)
        with pytest.raises(SchemaError):
            empty.weighted_mean()
        with pytest.raises(AnalysisError):
            correlate_series(empty, empty, "presence", "rating")

    def test_filter_by_attrs_and_append_to_view(self):
        signals = self._aware()
        series = SignalSeries(signals)
        user = scrub_author("u1")
        view = series.filter(user=user)
        assert list(view) == filter_records(signals, user=user)
        assert list(series.filter(user=user, platform="ios")) == []
        extra = ImplicitSignal(dt.datetime(2022, 3, 9, tzinfo=self.ZONE), NETWORK,
                               "presence", 3.0, user=user)
        view.append(extra)
        assert list(view) == filter_records(signals, user=user) + [extra]
        assert len(series) == len(signals)
        assert list(view.filter(user=user)) == list(view)
