"""The acceptance soak: deterministic 5x-capacity overload, exact-once.

This is the tentpole's proof obligation: a sustained load spike at five
times the synthetic service's capacity, driven entirely on a
:class:`ManualClock`, must (a) account for every submitted query in
exactly one terminal state, (b) bound deadline overruns to one attempt
timeout, (c) drain to zero in-flight work, and (d) reproduce the exact
same counters from the same seed.
"""

import dataclasses

import pytest

from repro.core.usaas import UsaasQuery
from repro.resilience import FaultPlan, ManualClock
from repro.resilience.faults import Arrival, LoadSpikeSpec
from repro.serving import UsaasServer, run_soak
from repro.serving.soak import (
    estimated_service_time_s,
    synthetic_soak_service,
)
from repro.verdict import Verdict

SLOW_S = 0.05
ATTEMPT_TIMEOUT_S = 0.2
DEADLINE_S = 0.6
OVERLOAD = 5.0
DURATION_S = 4.0
MIX = (("interactive", 0.6), ("batch", 0.3), ("monitoring", 0.1))
QUERY = UsaasQuery(network="starlink", service="teams")


def run_one(seed, deadline_s=DEADLINE_S, include_flaky=False):
    clock = ManualClock()
    plan = FaultPlan(seed=seed, clock=clock)
    service = synthetic_soak_service(
        plan, slow_s=SLOW_S, attempt_timeout_s=ATTEMPT_TIMEOUT_S,
        include_flaky=include_flaky,
    )
    rate = OVERLOAD / estimated_service_time_s(SLOW_S)
    arrivals = plan.load_spikes("soak", LoadSpikeSpec(
        rate_per_s=rate, duration_s=DURATION_S,
        priority_mix=MIX, deadline_s=deadline_s,
    ))
    server = UsaasServer(service, max_pending=8, shed_policy="priority")
    report = run_soak(server, arrivals, query_for=lambda arrival: QUERY)
    return report, server


@pytest.fixture(scope="module")
def soak():
    return run_one(seed=7)


class TestAcceptance:
    def test_overload_actually_overloads(self, soak):
        report, _ = soak
        # ~5 arrivals per service time for 4 simulated seconds.
        assert report.arrivals > 100
        assert report.shed_rate > 0.3

    def test_exact_once_accounting(self, soak):
        report, server = soak
        assert report.accounted, report.summary()
        assert report.submitted == report.arrivals
        # Outcome map agrees with the counters.
        assert len(server.outcomes) == report.submitted
        by_status = {}
        for outcome in server.outcomes.values():
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        assert by_status.get("served", 0) == report.served
        assert by_status.get("served_degraded", 0) == report.served_degraded
        assert by_status.get("shed", 0) == report.shed
        assert by_status.get("deadline_exceeded", 0) == (
            report.deadline_exceeded
        )
        assert by_status.get("failed", 0) == report.failed

    def test_every_interesting_state_is_reached(self, soak):
        report, _ = soak
        assert report.served > 0
        assert report.served_degraded > 0
        assert report.shed > 0
        assert report.deadline_exceeded > 0

    def test_deadline_overrun_bounded_by_one_attempt(self, soak):
        _, server = soak
        checked = 0
        for outcome in server.outcomes.values():
            if outcome.status != "deadline_exceeded":
                continue
            assert outcome.latency_s is not None
            overrun = outcome.latency_s - DEADLINE_S
            assert overrun <= ATTEMPT_TIMEOUT_S + 1e-9, outcome
            checked += 1
        assert checked > 0

    def test_drain_leaves_nothing_in_flight(self, soak):
        report, server = soak
        assert report.drain.clean
        assert report.drain.leftover_pending == 0
        assert report.drain.in_flight == 0
        assert not server.has_pending()
        assert server.admission.in_flight_count == 0

    def test_priority_classes_shed_bottom_up(self, soak):
        report, _ = soak
        shed_rate = {}
        for name, counters in report.metrics.per_class:
            if counters.submitted:
                shed_rate[name] = counters.shed / counters.submitted
        # Under the priority policy the lower classes bear the load.
        assert shed_rate["monitoring"] >= shed_rate["interactive"]
        assert shed_rate["batch"] >= shed_rate["interactive"]


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        first, _ = run_one(seed=7)
        second, _ = run_one(seed=7)
        assert first.counters_dict() == second.counters_dict()

    def test_different_seed_differs(self):
        first, _ = run_one(seed=7)
        second, _ = run_one(seed=8)
        assert first.counters_dict() != second.counters_dict()

    def test_flaky_source_degrades_every_answer(self):
        report, _ = run_one(seed=7, include_flaky=True)
        assert report.accounted
        assert report.served == 0
        assert report.served_degraded > 0


class TestSoakLoopMechanics:
    def test_idle_gaps_advance_the_clock(self):
        # Two far-apart arrivals: the soak loop must idle-advance.
        clock = ManualClock()
        plan = FaultPlan(seed=1, clock=clock)
        service = synthetic_soak_service(plan, slow_s=SLOW_S)
        server = UsaasServer(service, max_pending=8)
        arrivals = [Arrival(at_s=1.0), Arrival(at_s=10.0)]
        report = run_soak(server, arrivals, query_for=lambda a: QUERY)
        assert report.submitted == 2
        assert report.served == 2
        assert report.final_clock_s == pytest.approx(10.0 + 2 * SLOW_S)

    def test_arrivals_submitted_in_time_order(self):
        clock = ManualClock()
        plan = FaultPlan(seed=1, clock=clock)
        service = synthetic_soak_service(plan, slow_s=SLOW_S)
        server = UsaasServer(service, max_pending=8)
        # Deliberately unsorted input.
        arrivals = [Arrival(at_s=2.0), Arrival(at_s=0.5), Arrival(at_s=1.0)]
        report = run_soak(server, arrivals, query_for=lambda a: QUERY)
        assert report.submitted == 3
        assert report.accounted


class TestVerdict:
    def test_clean_soak_exits_0(self, soak):
        report, _ = soak
        assert report.verdict() == Verdict()

    def test_open_books_exit_2(self, soak):
        report, _ = soak
        broken = dataclasses.replace(report, failed=report.failed + 1)
        assert broken.verdict() == Verdict(2, (
            "accounting violation: submitted != sum(terminal states)",
        ))

    def test_dirty_drain_exits_2(self, soak):
        report, _ = soak
        drain = dataclasses.replace(report.drain, in_flight=1)
        verdict = dataclasses.replace(report, drain=drain).verdict()
        assert verdict == Verdict(2, (
            "drain left work behind: " + drain.summary(),
        ))

    def test_open_books_win_over_a_dirty_drain(self, soak):
        report, _ = soak
        broken = dataclasses.replace(
            report, failed=report.failed + 1,
            drain=dataclasses.replace(report.drain, in_flight=1),
        )
        assert broken.verdict().lines[0].startswith("accounting violation")


class TestHarnessScalePins:
    """The full-scale serving soak's outcomes, pinned exactly.

    Seed 20231128, a 20 s spike at 5x capacity, the default attempt
    timeout, 1 s deadlines and an 8-deep priority-shed queue.
    Everything runs on a ``ManualClock``, so these are behaviour pins,
    not timings: any movement is a change in admission, deadline or
    shedding code.
    """

    def test_full_scale_admitted_latency_and_shed_rate(self):
        clock = ManualClock()
        plan = FaultPlan(seed=20231128, clock=clock)
        service = synthetic_soak_service(plan, slow_s=SLOW_S)
        arrivals = plan.load_spikes("perf-soak", LoadSpikeSpec(
            rate_per_s=OVERLOAD / estimated_service_time_s(SLOW_S),
            duration_s=20.0, priority_mix=MIX, deadline_s=1.0,
        ))
        server = UsaasServer(service, max_pending=8, shed_policy="priority")
        report = run_soak(server, arrivals, query_for=lambda arrival: QUERY)
        assert report.verdict() == Verdict()
        assert report.arrivals == 984
        assert (report.served, report.served_degraded, report.shed,
                report.deadline_exceeded) == (208, 0, 776, 0)
        assert report.metrics.p50_latency_s() == 0.8
        assert report.metrics.p99_latency_s() == 0.8
        assert report.shed_rate == 0.7886178861788617
        assert report.final_clock_s == pytest.approx(
            20.82545874743067, rel=1e-9
        )
