"""UsaasServer: admission + deadlines + exact-once accounting."""

import pytest

from repro.core.usaas import UsaasQuery
from repro.errors import ConfigError, DeadlineExceededError, QueryRejectedError
from repro.resilience import FaultPlan, ManualClock
from repro.serving import UsaasServer
from repro.serving.soak import synthetic_soak_service

QUERY = UsaasQuery(network="starlink", service="teams")


def make_server(seed=7, slow_s=0.05, attempt_timeout_s=0.2,
                include_flaky=False, **kwargs):
    clock = ManualClock()
    plan = FaultPlan(seed=seed, clock=clock)
    service = synthetic_soak_service(
        plan, slow_s=slow_s, attempt_timeout_s=attempt_timeout_s,
        include_flaky=include_flaky,
    )
    return UsaasServer(service, **kwargs), clock


class TestHappyPath:
    def test_serve_returns_the_report(self):
        server, _ = make_server()
        report = server.serve(QUERY)
        assert report.n_implicit > 0
        assert report.n_explicit > 0
        assert not report.degraded
        counters = server.metrics().counters("interactive")
        assert counters.submitted == 1
        assert counters.served == 1

    def test_latency_is_simulated_service_time(self):
        server, clock = make_server(slow_s=0.05)
        before = clock.now()
        server.serve(QUERY)
        # Two healthy sources, 0.05 simulated seconds each.
        assert clock.now() - before == pytest.approx(0.1)
        [latency] = server.metrics().counters("interactive").latencies_s
        assert latency == pytest.approx(0.1)

    def test_degraded_source_set_counts_served_degraded(self):
        server, _ = make_server(include_flaky=True)
        report = server.serve(QUERY)
        assert report.degraded
        counters = server.metrics().counters("interactive")
        assert counters.served_degraded == 1
        assert counters.served == 0

    def test_unknown_priority_rejected_before_accounting(self):
        server, _ = make_server()
        with pytest.raises(ConfigError):
            server.submit(QUERY, priority="urgent")
        assert server.metrics().submitted == 0


class TestDeadlines:
    def test_serve_raises_when_budget_runs_out(self):
        # Healthy service time is 2 x 0.3s = 0.6s > the 0.5s budget.
        server, clock = make_server(
            slow_s=0.3, min_feasible_s=0.1,
        )
        with pytest.raises(DeadlineExceededError):
            server.serve(QUERY, deadline_s=0.5)
        counters = server.metrics().counters("interactive")
        assert counters.deadline_exceeded == 1
        # Bounded overrun: the executor stops scheduling work once the
        # budget is spent, so the clock never runs a full retry cycle
        # past the deadline — at most one attempt.
        assert clock.now() <= 0.5 + 0.3 + 1e-9

    def test_infeasible_deadline_is_shed_with_accounting(self):
        # min_feasible defaults to the retry attempt timeout (0.2s).
        server, _ = make_server()
        with pytest.raises(QueryRejectedError) as exc_info:
            server.serve(QUERY, deadline_s=0.15)
        assert exc_info.value.reason == "deadline_infeasible"
        counters = server.metrics().counters("interactive")
        assert counters.submitted == 1
        assert counters.shed == 1

    def test_expired_in_queue_never_starts_the_answer(self):
        # attempt_timeout generous enough that a 0.3s fetch succeeds.
        server, clock = make_server(
            slow_s=0.3, attempt_timeout_s=0.5, min_feasible_s=0.05,
        )
        first = server.submit(QUERY, deadline_s=5.0)
        second = server.submit(QUERY, deadline_s=0.5)
        attempts_before = sum(
            h.attempts for h in server.service.source_health()
        )
        out_first = server.run_next()
        assert out_first.ticket_id == first.id
        attempts_mid = sum(h.attempts for h in server.service.source_health())
        assert attempts_mid > attempts_before
        # 0.6 simulated seconds passed; the second query's 0.5s budget
        # expired while it sat in the queue.
        assert clock.now() == pytest.approx(0.6)
        out_second = server.run_next()
        assert out_second.ticket_id == second.id
        assert out_second.status == "deadline_exceeded"
        assert "expired in queue" in out_second.error
        # No source work was done for it.
        attempts_after = sum(
            h.attempts for h in server.service.source_health()
        )
        assert attempts_after == attempts_mid


class TestSheddingAccounting:
    def test_rejected_submission_is_accounted_then_raised(self):
        server, _ = make_server(max_pending=1, shed_policy="reject")
        server.submit(QUERY)
        with pytest.raises(QueryRejectedError) as exc_info:
            server.submit(QUERY)
        assert exc_info.value.reason == "queue_full"
        counters = server.metrics().counters("interactive")
        assert counters.submitted == 2
        assert counters.shed == 1

    def test_eviction_accounts_the_victim(self):
        server, _ = make_server(max_pending=1, shed_policy="priority")
        victim = server.submit(QUERY, priority="batch")
        keeper = server.submit(QUERY, priority="interactive")
        assert server.outcomes[victim.id].status == "shed"
        assert "evicted" in server.outcomes[victim.id].error
        assert keeper.id not in server.outcomes
        assert server.metrics().counters("batch").shed == 1

    def test_exact_once_accounting_is_enforced(self):
        server, _ = make_server()
        server.serve(QUERY)
        from repro.serving.server import QueryOutcome

        with pytest.raises(ConfigError, match="exactly once"):
            server._record(QueryOutcome(
                ticket_id=0, priority="interactive", status="served",
            ))

    def test_double_account_is_a_typed_ledger_violation(self):
        from repro.errors import LedgerViolationError
        from repro.serving.server import QueryOutcome

        server, _ = make_server()
        server.serve(QUERY)
        with pytest.raises(LedgerViolationError):
            server._record(QueryOutcome(
                ticket_id=0, priority="interactive", status="failed",
            ))


class TestDrain:
    def test_drain_finishes_queued_work_and_stops_admission(self):
        server, _ = make_server(max_pending=8)
        for _ in range(3):
            server.submit(QUERY)
        report = server.drain()
        assert report.completed == 3
        assert report.clean
        assert server.draining
        with pytest.raises(QueryRejectedError) as exc_info:
            server.submit(QUERY)
        assert exc_info.value.reason == "draining"
        # The post-drain rejection is itself accounted.
        assert server.metrics().counters("interactive").shed == 1

    def test_drain_on_idle_server_is_clean(self):
        server, _ = make_server()
        report = server.drain()
        assert report.completed == 0
        assert report.clean


class TestMetricsSurface:
    def test_table_lists_every_class(self):
        server, _ = make_server()
        server.serve(QUERY, priority="batch")
        table = server.metrics().table()
        for name in ("interactive", "batch", "monitoring"):
            assert name in table

    def test_as_dict_has_percentiles(self):
        server, _ = make_server()
        server.serve(QUERY)
        entry = server.metrics().as_dict()["interactive"]
        assert entry["p50_latency_s"] == pytest.approx(0.1)
        assert entry["p99_latency_s"] == pytest.approx(0.1)
        assert server.metrics().as_dict()["batch"]["p50_latency_s"] is None
