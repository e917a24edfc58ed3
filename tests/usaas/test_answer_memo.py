"""The answer memo of ``UsaasService.answer``.

A report is memoized on the query and on what every fetch served: the
surviving, failed and stale source names and each fetched series'
identity and length.  These tests pin that a memoized report is the
report the service would compute, that errors are never memoized, the
memo's bound, and that the memo keeps no fetched series alive.
"""

import datetime as dt
import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signals import SignalSeries
from repro.core.usaas import (
    UsaasQuery,
    UsaasService,
    social_signals,
    telemetry_signals,
)
from repro.core.usaas.service import ANSWER_MEMO_SIZE
from repro.errors import PrivacyError, ReproError
from repro.resilience import (
    FaultPlan,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.faults import ALWAYS_FAIL
from repro.social import CorpusConfig, CorpusGenerator
from repro.telemetry import CallDatasetGenerator, GeneratorConfig

from tests.usaas.oracle import OracleService

NETWORK = "starlink"


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
        self.extra = list(telemetry_signals(other, network=NETWORK))
        self.fiber = list(telemetry_signals(other, network="fiber"))


@pytest.fixture(scope="module")
def inputs():
    return Inputs()


@pytest.fixture()
def computed(monkeypatch):
    """Counts the answers ``UsaasService`` computes rather than recalls."""
    calls = []
    report = UsaasService._report

    def counting(self, query, gathered):
        calls.append(query)
        return report(self, query, gathered)

    monkeypatch.setattr(UsaasService, "_report", counting)
    return calls


def _outcome(call):
    try:
        return call()
    except ReproError as exc:
        return type(exc), str(exc)


def _fixed(cls=UsaasService, **sources):
    service = cls(clock=ManualClock())
    for name, signals in sources.items():
        series = SignalSeries(signals)
        service.register_source(name, lambda series=series: series)
    return service


QUERY = UsaasQuery(network=NETWORK, service="teams", breakdown="platform")

QUERY_GRID = tuple(
    UsaasQuery(network=NETWORK, service=service, breakdown=breakdown,
               min_users=min_users, **window)
    for window in (
        {},
        dict(start=dt.datetime(2022, 3, 1), end=dt.datetime(2022, 4, 30, 23)),
    )
    for service in (None, "teams")
    for breakdown in (None, "platform")
    for min_users in (None, 3, 10**6)
)

#: Writes append the held-back telemetry in this many chunks; later
#: writes append nothing, as ``serve``'s do once its held days run out.
WRITES = 3

#: A swap puts a new series of this many social rows, from a chosen
#: offset, in the social source: same length, other rows.
SWAP_ROWS = 400

CHANGES = st.one_of(
    st.none(),
    st.tuples(st.just("write"), st.none()),
    st.tuples(st.just("swap"), st.integers(0, 2)),
    st.tuples(st.just("outage"), st.booleans()),
)


@st.composite
def histories(draw):
    """Steps that each change the data or not, then ask one of a few queries."""
    queries = draw(st.lists(
        st.sampled_from(QUERY_GRID), min_size=1, max_size=3, unique=True,
    ))
    return draw(st.lists(
        st.tuples(CHANGES, st.sampled_from(queries)), min_size=1, max_size=10,
    ))


class World:
    """Sources shared by a memoized service and its twin.

    ``telemetry`` is a live series that writes extend, ``social`` a slot
    that swaps fill with a new series, and ``flaky`` a feed that fails
    through a fault plan during an outage: it is then served stale, or
    counted failed when it never served.  The twin has its own clock
    and fault plan, makes the same fetches and empties its memo and its
    merged store before each answer, so it reports what a service that
    went through the same fetches computes from scratch.
    """

    def __init__(self, inputs):
        cut = len(inputs.implicit) * 2 // 3
        self.live = SignalSeries(inputs.implicit[:cut])
        self.held = inputs.implicit[cut:]
        self.chunk = -(-len(self.held) // WRITES)
        self.explicit = inputs.explicit
        self.social = SignalSeries(self.explicit[:SWAP_ROWS])
        self.down = False
        self.memoized = self._service(inputs)
        self.twin = self._service(inputs)

    def _service(self, inputs):
        clock = ManualClock()
        service = UsaasService(
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, seed=3),
            ),
            clock=clock,
        )
        extra = SignalSeries(inputs.extra)
        failing = FaultPlan(seed=5, clock=clock).wrap_source(
            "flaky", lambda: extra, ALWAYS_FAIL
        )
        service.register_source(
            "flaky", lambda: failing() if self.down else extra
        )
        service.register_source("social", lambda: self.social)
        service.register_source("telemetry", lambda: self.live)
        return service

    def write(self):
        self.live.extend(self.held[:self.chunk])
        self.held = self.held[self.chunk:]

    def swap(self, offset):
        start = offset * SWAP_ROWS // 2
        self.social = SignalSeries(self.explicit[start:start + SWAP_ROWS])

    def ask(self, query):
        got = _outcome(lambda: self.memoized.answer(query))
        self.twin._memo.clear()
        self.twin._store = (None, None)
        want = _outcome(lambda: self.twin.answer(query))
        assert got == want, query


class TestMemoizedEqualsComputed:
    @given(history=histories())
    @settings(max_examples=50, deadline=None)
    def test_interleavings(self, inputs, history):
        world = World(inputs)
        for change, query in history:
            if change is not None:
                op, arg = change
                if op == "write":
                    world.write()
                elif op == "swap":
                    world.swap(arg)
                else:
                    world.down = arg
            world.ask(query)

    def test_an_append_is_seen_without_invalidate(self, inputs, computed):
        cut = len(inputs.implicit) * 2 // 3
        live = SignalSeries(inputs.implicit[:cut])
        service = _fixed(social=inputs.explicit)
        service.register_source("telemetry", lambda: live)
        before = service.answer(QUERY)
        live.extend(inputs.implicit[cut:])
        after = service.answer(QUERY)
        assert len(computed) == 2
        assert after.n_implicit > before.n_implicit
        fresh = _fixed(telemetry=inputs.implicit, social=inputs.explicit)
        assert replace(after, source_health=()) == replace(
            fresh.answer(QUERY), source_health=()
        )
        n = len(computed)
        live.extend([])  # a write with nothing left to append
        assert service.answer(QUERY).insights is after.insights
        assert len(computed) == n


class TestAnswerMemo:
    def test_a_hit_returns_the_memoized_insights(self, inputs, computed):
        service = _fixed(telemetry=inputs.implicit, social=inputs.explicit)
        first = service.answer(QUERY)
        again = service.answer(QUERY)
        assert len(computed) == 1
        assert again.insights is first.insights
        assert again.correlations is first.correlations
        assert again.source_health == service.source_health()
        assert [h.attempts for h in first.source_health] == [1, 1]
        assert [h.attempts for h in again.source_health] == [2, 2]

    def test_a_query_given_lists_is_memoized(self, inputs, computed):
        service = _fixed(telemetry=inputs.implicit, social=inputs.explicit)
        query = UsaasQuery(network=NETWORK, implicit_metrics=["presence"],
                           explicit_metrics=["sentiment_polarity"])
        first = service.answer(query)
        assert service.answer(query).insights is first.insights
        assert len(computed) == 1

    def test_a_privacy_error_is_raised_again(self, inputs, computed):
        service = _fixed(telemetry=inputs.implicit, social=inputs.explicit)
        query = UsaasQuery(network=NETWORK, min_users=10**6)
        for _ in range(2):
            with pytest.raises(PrivacyError):
                service.answer(query)
        assert len(computed) == 2
        assert not service._memo

    def test_the_memo_never_grows_past_its_bound(self, inputs, computed):
        service = _fixed(telemetry=inputs.implicit, social=inputs.explicit)
        queries = [
            UsaasQuery(network=NETWORK, min_users=n)
            for n in range(1, ANSWER_MEMO_SIZE + 11)
        ]
        for query in queries:
            service.answer(query)
            assert len(service._memo) <= ANSWER_MEMO_SIZE
        assert len(service._memo) == ANSWER_MEMO_SIZE
        service.answer(queries[-1])
        assert len(computed) == len(queries)
        service.answer(queries[0])  # the least recently used went first
        assert len(computed) == len(queries) + 1

    def test_a_new_series_per_call_never_hits_nor_stays_alive(
        self, inputs, computed
    ):
        exported = []

        def export():
            series = SignalSeries(inputs.implicit)
            exported.append(weakref.ref(series))
            return series

        service = _fixed(social=inputs.explicit)
        service.register_source("telemetry", export)
        for _ in range(4):
            service.answer(QUERY)
        assert len(computed) == 4
        gc.collect()
        assert [ref() is None for ref in exported] == [True, True, True, False]
        # The one still alive is the registry's stale-fallback value.
        assert exported[-1]() is service.registry.last_good("telemetry")
        del service.registry._last_good["telemetry"]
        gc.collect()
        assert exported[-1]() is None

    def test_compare_is_unchanged(self, inputs):
        sources = dict(
            telemetry=inputs.implicit, fiber=inputs.fiber,
            social=inputs.explicit,
        )
        service = _fixed(**sources)
        oracle = _fixed(OracleService, **sources)
        calls = (
            ("starlink", "fiber", "teams"),
            ("fiber", "starlink", None, ("presence", "drop_off", "rating")),
            ("starlink", "no-such-isp"),
        )
        want = [_outcome(lambda: oracle.compare(*args)) for args in calls]
        assert [_outcome(lambda: service.compare(*args)) for args in calls] == want
        for query in QUERY_GRID:
            _outcome(lambda: service.answer(query))
        assert [_outcome(lambda: service.compare(*args)) for args in calls] == want
