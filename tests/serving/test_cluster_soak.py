"""Cluster soak: seeded overload + replica faults, byte-identical."""

import dataclasses
import json

import pytest

from repro.core.usaas import UsaasQuery
from repro.errors import LedgerViolationError
from repro.resilience import ReplicaFaultSpec
from repro.resilience.faults import LoadSpikeSpec
from repro.serving import (
    TenantPolicy,
    replica_seed,
    run_cluster_soak,
    synthetic_cluster,
)
from repro.serving.soak import estimated_service_time_s
from repro.verdict import Verdict

QUERY = UsaasQuery(network="starlink", service="teams")
SLOW_S = 0.05
N_REPLICAS = 3
#: 5x whole-cluster capacity: a genuine sustained overload.
RATE = 5.0 * N_REPLICAS / estimated_service_time_s(SLOW_S)

SPIKE = LoadSpikeSpec(
    rate_per_s=RATE,
    duration_s=4.0,
    priority_mix=(
        ("interactive", 0.6), ("batch", 0.3), ("monitoring", 0.1),
    ),
    deadline_s=1.0,
)
MID_SPIKE_CRASH = ReplicaFaultSpec(
    replica="r1", kind="crash", at_s=1.5, down_s=1.0,
)


def run_one(seed, fault_specs=(MID_SPIKE_CRASH,), tenants=(),
            tenant_mix=None):
    cluster, plan = synthetic_cluster(
        seed=seed, n_replicas=N_REPLICAS, slow_s=SLOW_S, tenants=tenants,
    )
    if tenant_mix is None:
        tenant_mix = (
            tuple((t.name, t.weight) for t in tenants)
            if tenants else (("default", 1.0),)
        )
    arrivals = plan.cluster_load_spikes(
        "soak", SPIKE, tenant_mix=tenant_mix
    )
    events = (
        plan.replica_faults("soak", *fault_specs) if fault_specs else ()
    )
    return run_cluster_soak(
        cluster, arrivals, events, query_for=lambda a: QUERY
    ), cluster


@pytest.fixture(scope="module")
def crash_run():
    return run_one(seed=42)[0]


class TestAcceptance:
    """The tentpole's acceptance bar: crash mid-spike, ledger closed."""

    def test_exact_once_accounting_under_replica_loss(self, crash_run):
        assert crash_run.accounted
        crash_run.metrics.check_exact_once()

    def test_cluster_totals_equal_replica_sums_plus_router_shed(
        self, crash_run
    ):
        metrics = crash_run.metrics
        replica_submitted = sum(m.submitted for _, m in metrics.replicas)
        assert crash_run.submitted == (
            metrics.router_shed_total + replica_submitted
        )
        per_status = {
            s: sum(
                getattr(c, s)
                for _, m in metrics.replicas for _, c in m.per_class
            )
            for s in ("served", "served_degraded", "deadline_exceeded",
                      "failed", "shed")
        }
        assert crash_run.served == per_status["served"]
        assert crash_run.served_degraded == per_status["served_degraded"]
        assert crash_run.deadline_exceeded == per_status["deadline_exceeded"]
        assert crash_run.failed == per_status["failed"]
        assert crash_run.shed == (
            per_status["shed"] + metrics.router_shed_total
        )

    def test_crash_loses_queued_work_terminally(self, crash_run):
        # The crashed replica's queue died with it: terminal failures,
        # never resubmitted elsewhere.
        assert crash_run.failed > 0
        r1 = crash_run.metrics.replica_metrics("r1")
        assert sum(c.failed for _, c in r1.per_class) == crash_run.failed

    def test_failover_rebalanced_and_recovered(self, crash_run):
        # Breaker discovery removed r1, the half-open probe re-added it.
        assert crash_run.metrics.rebalances == 2
        # The cluster kept serving through the outage.
        assert crash_run.served > 0
        assert crash_run.shed_rate > 0.5  # 5x overload really shed

    def test_drain_left_nothing_behind(self, crash_run):
        assert crash_run.drain["leftover"] == 0

    def test_summary_mentions_the_story(self, crash_run):
        text = crash_run.summary()
        assert "submitted" in text
        assert "rebalances" in text
        assert "replicas" in text

    def test_bare_arrivals_replay_without_query_for(self):
        # ClusterArrival carries no query; the soak must supply a
        # default so the public surface works out of the box.
        cluster, plan = synthetic_cluster(seed=3, n_replicas=2,
                                          slow_s=SLOW_S)
        arrivals = plan.cluster_load_spikes(
            "bare", LoadSpikeSpec(rate_per_s=RATE, duration_s=1.0,
                                  deadline_s=1.0))
        report = run_cluster_soak(cluster, arrivals)
        assert report.submitted > 0
        assert report.accounted
        assert report.drain["leftover"] == 0


class TestDeterminism:
    def test_same_seed_byte_identical_counters(self):
        a, _ = run_one(seed=1234)
        b, _ = run_one(seed=1234)
        assert json.dumps(a.counters_dict(), sort_keys=True) == json.dumps(
            b.counters_dict(), sort_keys=True
        )

    def test_different_seed_differs(self):
        a, _ = run_one(seed=1234)
        b, _ = run_one(seed=4321)
        assert json.dumps(a.counters_dict(), sort_keys=True) != json.dumps(
            b.counters_dict(), sort_keys=True
        )

    def test_replica_seeds_are_stable_and_distinct(self):
        assert replica_seed(42, 0) == replica_seed(42, 0)
        seeds = {replica_seed(42, i) for i in range(8)}
        assert len(seeds) == 8

    def test_crash_walk_closes_the_ledger_for_every_victim(self):
        # Seeded replica-crash walk: whichever replica dies, and
        # whenever, the cluster-wide ledger still closes exactly.
        for i, victim in enumerate(("r0", "r1", "r2")):
            spec = ReplicaFaultSpec(
                replica=victim, kind="crash",
                at_s=0.5 + 0.7 * i, down_s=0.8,
            )
            report, _ = run_one(seed=100 + i, fault_specs=(spec,))
            assert report.accounted, f"ledger broke crashing {victim}"
            assert report.drain["leftover"] == 0


class TestFaultKinds:
    def test_hang_holds_work_instead_of_losing_it(self):
        spec = ReplicaFaultSpec(
            replica="r1", kind="hang", at_s=1.5, down_s=1.0,
        )
        report, cluster = run_one(seed=42, fault_specs=(spec,))
        assert report.accounted
        # A hang (with recovery) never kills queued work...
        assert report.failed == 0
        # ...but the held queries blow their deadlines when released.
        assert report.deadline_exceeded > 0
        assert cluster.replica("r1").hangs == 1

    def test_hang_without_recovery_fails_held_work_at_drain(self):
        spec = ReplicaFaultSpec(replica="r1", kind="hang", at_s=1.5)
        report, _ = run_one(seed=42, fault_specs=(spec,))
        assert report.accounted
        assert report.failed > 0
        assert report.drain["failed_at_drain"] == report.failed

    def test_slow_window_degrades_latency_but_loses_nothing(self):
        spec = ReplicaFaultSpec(
            replica="r1", kind="slow", at_s=0.5, down_s=2.0,
            slow_extra_s=0.2,
        )
        report, _ = run_one(seed=42, fault_specs=(spec,))
        clean, _ = run_one(seed=42, fault_specs=())
        assert report.accounted
        assert report.failed == 0
        slow_p99 = report.metrics.replica_metrics("r1").p99_latency_s()
        clean_p99 = clean.metrics.replica_metrics("r1").p99_latency_s()
        assert slow_p99 > clean_p99

    def test_flapping_replica_rebalances_repeatedly(self):
        spec = ReplicaFaultSpec(
            replica="r1", kind="flap", at_s=0.5, down_s=0.4,
            period_s=1.2, flaps=2,
        )
        report, cluster = run_one(seed=42, fault_specs=(spec,))
        assert report.accounted
        assert cluster.replica("r1").crashes == 2
        assert cluster.replica("r1").recoveries == 2
        assert report.fault_events == 4

    def test_clean_run_has_no_failures_or_rebalances(self):
        report, _ = run_one(seed=42, fault_specs=())
        assert report.accounted
        assert report.failed == 0
        assert report.metrics.rebalances == 0


class TestTenants:
    def test_weighted_fair_admission_tracks_weights(self):
        # Arrivals split 50/50, but alpha holds twice the weight: the
        # stride scheduler must push beta's excess back.  (When the
        # offered mix already matches the weights, nobody fair-sheds —
        # that's the scheduler being *work-conserving*, not broken.)
        tenants = (
            TenantPolicy(name="alpha", weight=2.0),
            TenantPolicy(name="beta", weight=1.0),
        )
        report, cluster = run_one(
            seed=42, tenants=tenants,
            tenant_mix=(("alpha", 1.0), ("beta", 1.0)),
        )
        assert report.accounted
        alpha = cluster.tenant_state("alpha")
        beta = cluster.tenant_state("beta")
        assert beta.shed_fair > 0  # the over-offering tenant pushed back
        # Under sustained congestion the admitted ratio converges toward
        # the 2:1 weight ratio (loose band).
        ratio = alpha.admitted / max(1, beta.admitted)
        assert 1.3 < ratio < 3.0

    def test_tenant_ledger_is_complete(self):
        tenants = (
            TenantPolicy(name="alpha", weight=2.0),
            TenantPolicy(name="beta", weight=1.0),
        )
        report, cluster = run_one(seed=7, tenants=tenants)
        assert report.accounted
        for name in ("alpha", "beta"):
            state = cluster.tenant_state(name)
            # Every tenant submission is admitted or shed somewhere.
            assert state.submitted == (
                state.admitted + state.shed_quota + state.shed_fair
                + state.shed_no_replica + state.shed_replica
            )


class TestVerdict:
    def test_clean_soak_exits_0(self, crash_run):
        assert crash_run.verdict() == Verdict()

    def test_open_ledger_exits_2(self, crash_run):
        metrics = dataclasses.replace(
            crash_run.metrics, submitted=crash_run.metrics.submitted + 1,
        )
        broken = dataclasses.replace(crash_run, metrics=metrics)
        assert not broken.accounted
        assert broken.verdict() == Verdict(2, (
            "accounting violation: cluster ledger did not close",
        ))

    def test_leftover_work_exits_2(self, crash_run):
        broken = dataclasses.replace(
            crash_run, drain={**crash_run.drain, "leftover": 3},
        )
        assert broken.verdict() == Verdict(2, (
            "drain left 3 queries behind",
        ))

    def test_total_outage_exits_3(self, crash_run):
        broken = dataclasses.replace(crash_run, served=0, served_degraded=0)
        assert broken.verdict() == Verdict(3, (
            "total outage: nothing was served",
        ))

    def test_open_ledger_raises_the_typed_error(self, crash_run):
        metrics = dataclasses.replace(
            crash_run.metrics, submitted=crash_run.metrics.submitted + 1,
        )
        with pytest.raises(LedgerViolationError, match="router-shed"):
            metrics.check_exact_once()


class TestHarnessScalePins:
    """The full-scale cluster soak's outcomes, pinned exactly.

    Seed 20231128, three replicas, a 20 s spike at 5x whole-cluster
    capacity over tenants alpha (2) and beta (1), and replica r1
    crashing 7.5 s in for 5 s.  Simulated time only, so any movement is
    a change in routing, failover or quota code.
    """

    def test_full_scale_failover_shed_rate_and_latency(self):
        duration_s = 20.0
        cluster, plan = synthetic_cluster(
            seed=20231128, n_replicas=N_REPLICAS, slow_s=SLOW_S,
        )
        arrivals = plan.cluster_load_spikes(
            "perf-cluster-soak",
            dataclasses.replace(SPIKE, duration_s=duration_s),
            tenant_mix=(("alpha", 2.0), ("beta", 1.0)),
        )
        events = plan.replica_faults(
            "perf-cluster-soak",
            ReplicaFaultSpec(
                replica="r1", kind="crash",
                at_s=duration_s * 0.375, down_s=duration_s * 0.25,
            ),
        )
        report = run_cluster_soak(
            cluster, arrivals, events, query_for=lambda a: QUERY
        )
        assert report.verdict() == Verdict()
        assert report.arrivals == 3129
        assert (report.served, report.served_degraded, report.shed,
                report.failed, report.metrics.rebalances) == (
            559, 0, 2561, 8, 2)
        assert report.shed_rate == 0.8184723553851071
        assert report.metrics.p50_admitted_s() == 0.8
        assert report.metrics.p99_admitted_s() == 0.8
        assert report.final_router_clock_s == pytest.approx(
            19.993657176433366, rel=1e-9
        )
