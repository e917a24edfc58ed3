"""Tests for the signal-source registry."""

import datetime as dt

import pytest

from repro.core.signals import ImplicitSignal, SignalSeries
from repro.core.usaas.registry import SignalSourceRegistry
from repro.errors import QueryError
from repro.resilience.clock import ManualClock
from repro.resilience.executor import ResilienceConfig, SourceExecutor
from repro.resilience.policy import RetryPolicy

TS = dt.datetime(2022, 1, 1)


def make_source(counter):
    def source():
        counter["calls"] += 1
        return SignalSeries([ImplicitSignal(TS, "net", "m", 1.0)])
    return source


class TestRegistry:
    def test_register_and_fetch(self):
        registry = SignalSourceRegistry()
        counter = {"calls": 0}
        registry.register("teams", make_source(counter))
        assert "teams" in registry
        assert len(registry.load("teams")) == 1

    def test_lazy_and_loaded_on_every_fetch(self):
        registry = SignalSourceRegistry()
        counter = {"calls": 0}
        registry.register("teams", make_source(counter))
        assert counter["calls"] == 0  # lazy
        registry.load("teams")
        registry.load("teams")
        assert counter["calls"] == 2  # no cache: every load runs the source

    def test_duplicate_name_rejected(self):
        registry = SignalSourceRegistry()
        registry.register("x", lambda: SignalSeries())
        with pytest.raises(QueryError):
            registry.register("x", lambda: SignalSeries())

    def test_unknown_source_rejected(self):
        with pytest.raises(QueryError):
            SignalSourceRegistry().load("ghost")

    def test_non_callable_rejected(self):
        with pytest.raises(QueryError):
            SignalSourceRegistry().register("x", SignalSeries())

    def test_all_series_sorted(self):
        registry = SignalSourceRegistry()
        registry.register("b", lambda: SignalSeries())
        registry.register("a", lambda: SignalSeries())
        assert registry.names() == ["a", "b"]  # the order sources are fetched


class TestCacheCoherence:
    """The last-good slot, the one value the registry keeps."""

    def _flaky_source(self, fail_first):
        state = {"calls": 0}

        def source():
            state["calls"] += 1
            if state["calls"] <= fail_first:
                raise QueryError("source down")
            return SignalSeries(
                [ImplicitSignal(TS, "net", "m", float(state["calls"]))]
            )

        return source, state

    def test_raising_source_never_populates_cache(self):
        registry = SignalSourceRegistry()
        source, state = self._flaky_source(fail_first=1)
        registry.register("flaky", source)
        executor = SourceExecutor(
            ResilienceConfig(retry=RetryPolicy(max_attempts=1)), ManualClock()
        )
        assert not executor.fetch(registry, "flaky").usable
        assert registry.last_good("flaky") is None
        # The next fetch re-runs the source and keeps the good result.
        outcome = executor.fetch(registry, "flaky")
        assert outcome.ok and len(outcome.series) == 1
        assert registry.last_good("flaky") is outcome.series

    def test_wrong_type_never_populates_cache(self):
        from repro.errors import SchemaError

        registry = SignalSourceRegistry()
        registry.register("wrong", lambda: [1, 2, 3])
        with pytest.raises(SchemaError):
            registry.load("wrong")
        with pytest.raises(SchemaError):
            registry.commit("wrong", [1, 2, 3])
        assert registry.last_good("wrong") is None

    def test_invalidate_forces_refetch_but_keeps_last_good(self):
        registry = SignalSourceRegistry()
        counter = {"calls": 0}
        registry.register("teams", make_source(counter))
        first = registry.load("teams")
        registry.commit("teams", first)
        registry.invalidate("teams")
        assert registry.last_good("teams") is first
        registry.load("teams")
        assert counter["calls"] == 2

    def test_invalidate_unknown_rejected(self):
        with pytest.raises(QueryError):
            SignalSourceRegistry().invalidate("ghost")
