"""RetryPolicy schedules, and the retry contract fetch runs them under."""

import pytest

from repro.core.signals import SignalSeries
from repro.core.usaas.registry import SignalSourceRegistry
from repro.errors import AnalysisError, ConfigError
from repro.resilience import (
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
    SourceExecutor,
)


class TestSchedule:
    def test_deterministic_per_seed_and_key(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        assert policy.schedule("social") == policy.schedule("social")
        assert policy.schedule("social") != policy.schedule("telemetry")
        assert policy.schedule("social") != RetryPolicy(
            max_attempts=5, seed=8
        ).schedule("social")

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=1.0, multiplier=2.0,
            max_delay_s=4.0, jitter=0.0,
        )
        assert policy.schedule("x") == (1.0, 2.0, 4.0, 4.0, 4.0)

    def test_jitter_bounded(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=1.0, multiplier=1.0, jitter=0.25
        )
        for delay in policy.schedule("k"):
            assert 0.75 <= delay <= 1.25

    def test_single_attempt_means_empty_schedule(self):
        assert RetryPolicy(max_attempts=1).schedule("x") == ()

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(base_delay_s=-1.0),
        dict(multiplier=0.5),
        dict(jitter=1.0),
        dict(attempt_timeout_s=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestFetchRetryContract:
    """How ``SourceExecutor.fetch``, the retry loop every USaaS answer
    runs, applies a policy to one source."""

    @staticmethod
    def fetch(source, policy, clock):
        registry = SignalSourceRegistry()
        registry.register("feed", source)
        executor = SourceExecutor(
            config=ResilienceConfig(retry=policy), clock=clock
        )
        return executor.fetch(registry, "feed")

    def test_transient_failure_then_success(self):
        clock = ManualClock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise AnalysisError("transient")
            return SignalSeries()

        policy = RetryPolicy(max_attempts=3, jitter=0.0, base_delay_s=1.0)
        assert self.fetch(flaky, policy, clock).ok
        assert calls["n"] == 3
        assert clock.sleeps == [1.0, 2.0]  # backoff consumed via the clock

    def test_programming_errors_propagate_unretried(self):
        clock = ManualClock()
        calls = {"n": 0}

        def buggy():
            calls["n"] += 1
            raise TypeError("bug")

        with pytest.raises(TypeError):
            self.fetch(buggy, RetryPolicy(), clock)
        assert calls["n"] == 1
        assert clock.sleeps == []

    def test_a_failing_source_sleeps_exactly_its_schedule(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.5, seed=11)
        registry = SignalSourceRegistry()

        def down():
            raise AnalysisError("down")

        registry.register("feed", down)
        executor = SourceExecutor(
            config=ResilienceConfig(
                retry=policy, breaker_window=20, breaker_min_calls=20,
            ),
            clock=clock,
        )
        for _ in range(3):
            assert not executor.fetch(registry, "feed").usable
        assert clock.sleeps == list(policy.schedule("feed")) * 3

    def test_successful_fetches_derive_at_most_once_per_source(
        self, monkeypatch
    ):
        first_delay = RetryPolicy().schedule("flaky")[0]
        derived = []
        schedule = RetryPolicy.schedule

        def counting(policy, key):
            derived.append(key)
            return schedule(policy, key)

        monkeypatch.setattr(RetryPolicy, "schedule", counting)
        calls = {"n": 0}

        def once_flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise AnalysisError("transient")
            return SignalSeries()

        registry = SignalSourceRegistry()
        registry.register("steady", lambda: SignalSeries())
        registry.register("flaky", once_flaky)
        clock = ManualClock()
        executor = SourceExecutor(clock=clock)
        for _ in range(5):
            for name in ("steady", "flaky"):
                assert executor.fetch(registry, name).ok
        assert sorted(set(derived)) == sorted(derived)
        assert clock.sleeps == [first_delay]
