"""The merged signal store behind ``UsaasService``'s memo misses.

The service keeps one store, ``concat_series`` of every served series,
keyed on ``GatherResult.identity()`` as the answer memo is.  The first
miss over a data version pools its own rows (filter each series, then
concatenate); from the second miss on, a pool is a filtered view of the
store.  These tests pin when the store is built and rebuilt, that its
pools are the per-query pools row for row, that a source serving a new
series per fetch never merges, and that the scrub check it runs once
per store raises exactly where the per-query check did.
"""

import datetime as dt

import pytest

from repro.core.signals import ExplicitSignal, SignalSeries
from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.core.usaas import service as service_module
from repro.errors import PrivacyError, ReproError, SchemaError
from repro.resilience import ManualClock, ResilienceConfig, RetryPolicy
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

from tests.usaas.oracle import OracleService

NETWORK = "starlink"


def _days(first, last):
    return dict(
        start=dt.datetime.combine(first, dt.time.min),
        end=dt.datetime.combine(last, dt.time.max),
    )


#: Distinct queries: the whole span and calendar windows, with and
#: without a service and a breakdown.
QUERIES = (
    UsaasQuery(network=NETWORK, service="teams"),
    UsaasQuery(network=NETWORK, service="teams", breakdown="platform"),
    UsaasQuery(network=NETWORK, breakdown="country"),
    UsaasQuery(network=NETWORK, service="teams",
               explicit_metrics=("sentiment_polarity", "rating")),
    UsaasQuery(network=NETWORK, service="teams",
               **_days(dt.date(2022, 1, 1), dt.date(2022, 3, 31))),
    UsaasQuery(network=NETWORK, breakdown="platform",
               **_days(dt.date(2022, 1, 1), dt.date(2022, 1, 31))),
    UsaasQuery(network=NETWORK, min_users=3, breakdown="platform",
               **_days(dt.date(2022, 4, 1), dt.date(2022, 4, 30))),
    UsaasQuery(network=NETWORK, min_users=10**6),
    UsaasQuery(network="fiber", service="teams"),
    UsaasQuery(network="no-such-isp"),
)

COMPARE = ("starlink", "fiber", "teams")


class Inputs:
    def __init__(self):
        calls = CallDatasetGenerator(GeneratorConfig(
            n_calls=30, seed=8, mos_sample_rate=0.3, workers=1,
        )).generate()
        corpus = CorpusGenerator(CorpusConfig(
            seed=8, span_start=dt.date(2022, 1, 1),
            span_end=dt.date(2022, 4, 30), posts_per_week=30.0, workers=1,
        )).generate()
        other = CallDatasetGenerator(GeneratorConfig(
            n_calls=15, seed=9, workers=1,
        )).generate()
        self.implicit = list(telemetry_signals(calls, network=NETWORK))
        self.explicit = list(social_signals(corpus, network=NETWORK))
        self.fiber = list(telemetry_signals(other, network="fiber"))


@pytest.fixture(scope="module")
def inputs():
    return Inputs()


@pytest.fixture()
def concats(monkeypatch):
    """The parts of every ``concat_series`` call the service makes."""
    calls = []
    concat = service_module.concat_series

    def counting(parts):
        calls.append(tuple(parts))
        return concat(parts)

    monkeypatch.setattr(service_module, "concat_series", counting)
    return calls


def _merges(calls, served):
    """The calls that merged the served series themselves, in fetch order."""
    return [
        parts for parts in calls
        if len(parts) == len(served)
        and all(part is series for part, series in zip(parts, served))
    ]


def _outcome(call):
    try:
        return call()
    except ReproError as exc:
        return type(exc), str(exc)


def _twins(**sources):
    """A service and its record-loop oracle over the same source callables."""
    out = []
    for cls in (UsaasService, OracleService):
        service = cls(
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, seed=3),
            ),
            clock=ManualClock(),
        )
        for name, source in sources.items():
            service.register_source(name, source)
        out.append(service)
    return out


def _ask(service, oracle, queries=QUERIES):
    """Each query's outcome on ``service``, checked against ``oracle``'s."""
    out = []
    for query in queries:
        got = _outcome(lambda: service.answer(query))
        assert got == _outcome(lambda: oracle.answer(query)), query
        out.append(got)
    return out


class TestBuiltOncePerDataVersion:
    def test_distinct_queries_build_it_once(self, inputs, concats):
        telemetry = SignalSeries(inputs.implicit + inputs.fiber)
        social = SignalSeries(inputs.explicit)
        service, oracle = _twins(
            social=lambda: social, telemetry=lambda: telemetry,
        )
        _ask(service, oracle)
        # The first miss pools its own rows; the second merges, once.
        assert len(concats) == 2
        assert _merges(concats, (social, telemetry)) == [concats[1]]

    def test_its_pools_are_the_per_query_pools(self, inputs):
        telemetry = SignalSeries(inputs.implicit + inputs.fiber)
        social = SignalSeries(inputs.explicit)
        service = UsaasService(clock=ManualClock())
        service.register_source("social", lambda: social)
        service.register_source("telemetry", lambda: telemetry)
        gathered = service._gather()
        for query in QUERIES * 2:
            pool = service._scrubbed_pool(
                gathered, service._merged(gathered), query
            )
            want = gathered.pool(query)
            for name in ("value", "weight", "day", "micros", "aware"):
                assert pool._col(name).tolist() == want._col(name).tolist()
            assert list(pool) == list(want), query
        assert service._store[1] is not None

    def test_an_append_rebuilds_it(self, inputs, concats):
        cut = len(inputs.implicit) * 2 // 3
        live = SignalSeries(inputs.implicit[:cut])
        social = SignalSeries(inputs.explicit)
        service, oracle = _twins(social=lambda: social, telemetry=lambda: live)
        _ask(service, oracle, QUERIES[:3])
        first = service._store[1][0]
        live.extend(inputs.implicit[cut:])
        _ask(service, oracle, QUERIES[:3])
        assert len(_merges(concats, (social, live))) == 2
        assert len(service._store[1][0]) == len(first) + len(inputs.implicit) - cut
        live.extend([])  # an empty write leaves the data, and the store, as they were
        store = service._store
        _ask(service, oracle, QUERIES[3:6])
        assert service._store is store

    def test_a_swapped_source_rebuilds_it(self, inputs, concats):
        slot = [SignalSeries(inputs.explicit[:400])]
        telemetry = SignalSeries(inputs.implicit)
        service, oracle = _twins(
            social=lambda: slot[0], telemetry=lambda: telemetry,
        )
        _ask(service, oracle, QUERIES[:3])
        slot[0] = SignalSeries(inputs.explicit[200:600])  # same length, other rows
        _ask(service, oracle, QUERIES[:3])
        assert len(concats) == 4
        assert len(_merges(concats, (slot[0], telemetry))) == 1

    def test_a_failed_or_stale_source_rebuilds_it(self, inputs, concats):
        down = {"social": False, "fiber": True}
        series = {
            "fiber": SignalSeries(inputs.fiber),
            "social": SignalSeries(inputs.explicit),
            "telemetry": SignalSeries(inputs.implicit),
        }

        def source(name):
            def fetch():
                if down.get(name):
                    raise SchemaError(f"{name} went away")
                return series[name]
            return fetch

        service, oracle = _twins(**{name: source(name) for name in series})
        served = (series["social"], series["telemetry"])
        # fiber never served, so it failed
        assert "failed: fiber" in _ask(service, oracle, QUERIES[:3])[0].summary
        down["social"] = True  # social served stale: same rows, new identity
        assert "stale: social" in _ask(service, oracle, QUERIES[:3])[0].summary
        down["social"] = False  # the first data again, once social's breaker
        for twin in (service, oracle):  # lets a probe through
            twin.executor.clock.advance(twin.executor.config.breaker_recovery_s)
        reports = _ask(service, oracle, QUERIES[3:6])  # other queries miss
        assert "stale" not in reports[0].summary
        assert len(_merges(concats, served)) == 3
        assert len(concats) == 6


class TestShared:
    def test_compare_shares_it(self, inputs, concats):
        telemetry = SignalSeries(inputs.implicit + inputs.fiber)
        social = SignalSeries(inputs.explicit)
        service, oracle = _twins(
            social=lambda: social, telemetry=lambda: telemetry,
        )
        got = _outcome(lambda: service.compare(*COMPARE))
        assert got == _outcome(lambda: oracle.compare(*COMPARE))
        assert len(concats) == 2  # one miss: each network pools its own rows
        _ask(service, oracle, QUERIES[:3])
        assert _merges(concats, (social, telemetry)) == concats[2:]
        assert service.compare(*COMPARE) == got
        assert len(concats) == 3

    def test_a_new_series_per_fetch_never_merges(self, inputs, concats):
        exported = []

        def export():
            exported.append(SignalSeries(inputs.implicit + inputs.fiber))
            return exported[-1]

        social = SignalSeries(inputs.explicit)
        service, oracle = _twins(social=lambda: social, telemetry=export)
        _ask(service, oracle)
        got = _outcome(lambda: service.compare(*COMPARE))
        assert got == _outcome(lambda: oracle.compare(*COMPARE))
        # One pool per query and two per compare, each of filtered views.
        assert len(concats) == len(QUERIES) + 2
        served = [social] + exported
        assert not any(
            part is series
            for parts in concats for part in parts for series in served
        )
        assert service._store[1] is None


class TestScrubCheck:
    RAW_AT = dt.datetime(2021, 6, 1, 12)
    WINDOW = UsaasQuery(
        network=NETWORK, **_days(dt.date(2022, 1, 1), dt.date(2022, 4, 30)),
    )

    def _services(self, inputs):
        raw = ExplicitSignal(
            self.RAW_AT, NETWORK, "sentiment_polarity", -0.5, user="alice",
        )
        telemetry = SignalSeries(inputs.implicit)
        social = SignalSeries(inputs.explicit + [raw])
        return _twins(social=lambda: social, telemetry=lambda: telemetry)

    def test_a_raw_identifier_outside_the_window_passes(self, inputs):
        service, oracle = self._services(inputs)
        for query in (self.WINDOW, QUERIES[4], QUERIES[5]):
            report = service.answer(query)
            assert report == oracle.answer(query)
        assert service._store[1] is not None
        assert service._store[1][1]  # the store's vocabulary holds the raw id

    @pytest.mark.parametrize("merged", [False, True])
    def test_a_raw_identifier_inside_the_window_raises_as_before(
        self, inputs, merged
    ):
        service, oracle = self._services(inputs)
        if merged:  # two misses build the store first
            for query in (self.WINDOW, QUERIES[4]):
                service.answer(query)
                oracle.answer(query)
        query = UsaasQuery(network=NETWORK, service="teams")
        message = f"signal at {self.RAW_AT} carries raw identifier"
        with pytest.raises(PrivacyError, match=message):
            service.answer(query)
        assert (service._store[1] is not None) == merged
        assert _outcome(lambda: service.answer(query)) == _outcome(
            lambda: oracle.answer(query)
        )
