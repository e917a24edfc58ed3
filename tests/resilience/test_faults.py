"""FaultPlan determinism: same seed, same chaos."""

import pytest

from repro.errors import ConfigError
from repro.resilience import FaultPlan, FaultSpec, ManualClock
from repro.resilience.faults import ALWAYS_FAIL, InjectedFault, always_slow


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(fail_rate=-0.1),
        dict(fail_rate=1.1),
        dict(slow_rate=2.0),
        dict(slow_rate=-0.5),
        dict(fail_rate=0.6, slow_rate=0.6),
        dict(slow_s=-1.0),
    ])
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultSpec(**kwargs)


def _actions(plan, name, spec, n):
    """The actions ``n`` calls of a source ``plan`` wraps as ``name`` meet."""
    wrapped = plan.wrap_source(name, lambda: "data", spec)
    for _ in range(n):
        try:
            wrapped()
        except InjectedFault:
            pass
    return tuple(action for target, action in plan.log if target == name)


class TestDeterminism:
    def test_same_seed_same_action_sequence(self):
        spec = FaultSpec(fail_rate=0.3, slow_rate=0.3, slow_s=1.0)
        a = _actions(FaultPlan(seed=11), "feed", spec, 64)
        b = _actions(FaultPlan(seed=11), "feed", spec, 64)
        assert a == b
        assert {"fail", "slow", "ok"} >= set(a)

    def test_different_seed_differs(self):
        spec = FaultSpec(fail_rate=0.5)
        a = _actions(FaultPlan(seed=11), "feed", spec, 64)
        b = _actions(FaultPlan(seed=12), "feed", spec, 64)
        assert a != b

    def test_targets_have_independent_streams(self):
        spec = FaultSpec(fail_rate=0.5)
        plan = FaultPlan(seed=11)
        assert _actions(plan, "a", spec, 64) != _actions(plan, "b", spec, 64)

    def test_wrapped_source_replays_the_preview(self):
        """What a wrapped source does is what a same-seed plan logs."""
        spec = FaultSpec(fail_rate=0.4)
        preview = _actions(FaultPlan(seed=3), "feed", spec, 20)
        wrapped = FaultPlan(seed=3).wrap_source("feed", lambda: "data", spec)
        observed = []
        for _ in range(20):
            try:
                wrapped()
                observed.append("ok")
            except InjectedFault:
                observed.append("fail")
        assert tuple(observed) == preview


class TestInjection:
    def test_always_fail(self):
        plan = FaultPlan(seed=1)
        wrapped = plan.wrap_source("feed", lambda: "x", ALWAYS_FAIL)
        with pytest.raises(InjectedFault, match="feed"):
            wrapped()

    def test_slow_advances_the_clock_not_wall_time(self):
        clock = ManualClock()
        plan = FaultPlan(seed=1, clock=clock)
        wrapped = plan.wrap_source("feed", lambda: "x", always_slow(30.0))
        assert wrapped() == "x"
        assert clock.now() == 30.0
        assert clock.sleeps == []  # advanced, never slept

    def test_log_records_every_action(self):
        plan = FaultPlan(seed=1)
        wrapped = plan.wrap_source("feed", lambda: "x", FaultSpec())
        wrapped()
        wrapped()
        assert plan.log == [("feed", "ok"), ("feed", "ok")]


class TestLoadSpikes:
    MIX = (("interactive", 0.5), ("batch", 0.3), ("monitoring", 0.2))

    def _spec(self, **kwargs):
        from repro.resilience.faults import LoadSpikeSpec

        defaults = dict(rate_per_s=50.0, duration_s=2.0,
                        priority_mix=self.MIX, deadline_s=1.0)
        defaults.update(kwargs)
        return LoadSpikeSpec(**defaults)

    def test_same_seed_same_arrivals(self):
        a = FaultPlan(seed=11).load_spikes("spike", self._spec())
        b = FaultPlan(seed=11).load_spikes("spike", self._spec())
        assert a == b

    def test_different_seed_differs(self):
        a = FaultPlan(seed=11).load_spikes("spike", self._spec())
        b = FaultPlan(seed=12).load_spikes("spike", self._spec())
        assert a != b

    def test_arrivals_sorted_and_inside_the_window(self):
        arrivals = FaultPlan(seed=11).load_spikes(
            "spike", self._spec(start_s=3.0)
        )
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)
        assert all(3.0 < t <= 5.0 for t in times)

    def test_rate_roughly_honoured(self):
        arrivals = FaultPlan(seed=11).load_spikes("spike", self._spec())
        # 50/s for 2s: expect ~100, allow generous Poisson slack.
        assert 60 <= len(arrivals) <= 140

    def test_priority_mix_respected(self):
        arrivals = FaultPlan(seed=11).load_spikes(
            "spike", self._spec(duration_s=20.0)
        )
        share = {name: 0 for name, _ in self.MIX}
        for arrival in arrivals:
            share[arrival.priority] += 1
        total = len(arrivals)
        assert share["interactive"] / total == pytest.approx(0.5, abs=0.1)
        assert share["monitoring"] / total == pytest.approx(0.2, abs=0.1)

    def test_deadline_attached_to_every_arrival(self):
        arrivals = FaultPlan(seed=11).load_spikes("spike", self._spec())
        assert all(a.deadline_s == 1.0 for a in arrivals)

    def test_multiple_specs_merge_sorted(self):
        plan = FaultPlan(seed=11)
        arrivals = plan.load_spikes(
            "spike",
            self._spec(start_s=0.0, duration_s=1.0),
            self._spec(start_s=0.5, duration_s=1.0),
        )
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)
        assert ("spike", f"load_spikes.{len(arrivals)}") in plan.log

    def test_pick_priority_covers_the_unit_interval(self):
        spec = self._spec()
        assert spec.pick_priority(0.0) == "interactive"
        assert spec.pick_priority(0.49) == "interactive"
        assert spec.pick_priority(0.6) == "batch"
        assert spec.pick_priority(0.99) == "monitoring"

    @pytest.mark.parametrize("kwargs", [
        dict(rate_per_s=0.0),
        dict(duration_s=0.0),
        dict(start_s=-1.0),
        dict(deadline_s=0.0),
        dict(priority_mix=()),
        dict(priority_mix=(("interactive", -1.0),)),
        dict(priority_mix=(("interactive", 0.0),)),
    ])
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            self._spec(**kwargs)
