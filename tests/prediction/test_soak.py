"""Over-capacity prediction soaks: closed books, bounded overrun,
byte-determinism on a ManualClock."""

from __future__ import annotations

import dataclasses

import pytest

from repro.prediction import (
    CoalescerConfig,
    run_prediction_soak,
    synthetic_prediction_server,
)
from repro.prediction.soak import PredictionSoakReport
from repro.resilience.faults import Arrival
from repro.rng import derive
from repro.verdict import Verdict


def _overload_arrivals(seed, n_queries=80, deadline_scale=10.0):
    """Arrivals at 1.5x the coalesced service rate with tight deadlines:
    the over-capacity plan of :class:`TestHarnessScalePins` at test
    scale."""
    from repro.prediction import PredictionCostModel

    cost = PredictionCostModel()
    max_batch = 16
    batch_cost = cost.batch_cost_s(max_batch)
    rate = 1.5 * max_batch / batch_cost
    deadline_s = deadline_scale * batch_cost
    rng = derive(seed, "prediction", "test-soak")
    gaps = rng.exponential(1.0 / rate, size=n_queries)
    at = 0.0
    arrivals = []
    for i, gap in enumerate(gaps):
        at += float(gap)
        arrivals.append(Arrival(
            at_s=at,
            priority="interactive" if i % 8 == 0 else "batch",
            deadline_s=deadline_s,
        ))
    return arrivals


def _run(rated_columns, fitted_model, seed=17):
    server, plan, engine = synthetic_prediction_server(
        rated_columns, fitted_model, seed=seed,
        coalescer=CoalescerConfig(max_batch=16, max_delay_s=0.01),
        max_pending=16,
    )
    arrivals = _overload_arrivals(seed)
    report = run_prediction_soak(
        server, arrivals,
        rows_for=lambda a, i: tuple(range(i % 4 + 1)),
    )
    return report, server, engine


class TestOverCapacity:
    @pytest.fixture(scope="class")
    def soak(self, rated_columns, fitted_model):
        return _run(rated_columns, fitted_model)

    def test_books_close_exactly_once(self, soak):
        report, server, _ = soak
        assert report.accounted
        assert report.drain.clean
        counters = server.kind_counters("predict_mos")
        assert counters.submitted == report.submitted

    def test_only_served_degraded_or_shed(self, soak):
        report, _, _ = soak
        assert report.deadline_exceeded == 0
        assert report.failed == 0
        assert report.served + report.served_degraded + report.shed == (
            report.submitted
        )
        # Overload must actually bite for the test to mean anything.
        assert report.served_degraded + report.shed > 0

    def test_overrun_bounded_by_one_batch_cost(self, soak):
        report, _, engine = soak
        bound = engine.cost_model.batch_cost_s(
            16 * engine.n_rows  # generous: one max coalesced batch
        )
        assert report.max_overrun_s <= bound

    def test_coalescing_happened(self, soak):
        report, _, _ = soak
        assert report.mean_coalesced > 1.0
        assert report.batches < report.submitted

    def test_insights_books_unaffected(self, soak):
        _, server, _ = soak
        counters = server.kind_counters("insights")
        assert counters.submitted == 0


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, rated_columns,
                                            fitted_model):
        a, _, _ = _run(rated_columns, fitted_model, seed=23)
        b, _, _ = _run(rated_columns, fitted_model, seed=23)
        assert isinstance(a, PredictionSoakReport)
        assert a.counters_dict() == b.counters_dict()

    def test_different_seeds_differ(self, rated_columns, fitted_model):
        a, _, _ = _run(rated_columns, fitted_model, seed=23)
        b, _, _ = _run(rated_columns, fitted_model, seed=24)
        assert a.counters_dict() != b.counters_dict()


class TestRoomyCapacity:
    def test_under_capacity_everything_is_served_cleanly(self, rated_columns,
                                                         fitted_model):
        server, plan, engine = synthetic_prediction_server(
            rated_columns, fitted_model, seed=3,
            coalescer=CoalescerConfig(max_batch=8, max_delay_s=0.01),
            max_pending=32,
        )
        cost = engine.cost_model.batch_cost_s(8)
        arrivals = [
            Arrival(at_s=i * 2 * cost, priority="batch", deadline_s=1.0)
            for i in range(20)
        ]
        report = run_prediction_soak(server, arrivals,
                                     rows_for=lambda a, i: (i % 5,))
        assert report.accounted
        assert report.served == report.submitted == 20
        assert report.served_degraded == report.shed == 0
        assert report.max_overrun_s == 0.0


class TestVerdict:
    @pytest.fixture(scope="class")
    def soak(self, rated_columns, fitted_model):
        return _run(rated_columns, fitted_model)

    def test_bound_is_one_full_coalesced_batch(self, soak):
        report, _, engine = soak
        assert report.one_batch_s == engine.cost_model.batch_cost_s(
            16 * engine.n_rows
        )

    def test_contract_held_exits_0(self, soak):
        report, _, _ = soak
        assert report.verdict() == Verdict()

    def test_open_books_exit_3(self, soak):
        report, _, _ = soak
        broken = dataclasses.replace(report, failed=report.failed + 1)
        assert broken.verdict() == Verdict(3, (
            "accounting violation: submitted != sum(terminal states) "
            "for predict_mos",
        ))

    def test_blown_deadline_exits_3(self, soak):
        report, _, _ = soak
        broken = dataclasses.replace(
            report, shed=report.shed - 2, deadline_exceeded=2,
        )
        assert broken.verdict() == Verdict(3, (
            "deadline violation: 2 prediction(s) answered past their "
            "budget",
        ))

    def test_overrun_past_one_batch_exits_3(self, soak):
        report, _, _ = soak
        broken = dataclasses.replace(
            report, max_overrun_s=report.one_batch_s + 0.5,
        )
        assert broken.verdict() == Verdict(3, (
            f"deadline violation: answered "
            f"{report.one_batch_s + 0.5:.4f}s over budget (> one batch "
            f"cost {report.one_batch_s:.4f}s)",
        ))


class TestHarnessScalePins:
    """Ground-truth accuracy and the coalesced-soak p99, pinned exactly.

    The inputs are 300 calls on seed 20231128 rated at 0.5, generated
    with the vectorized engine's ground truth, and a predictor fitted on
    those columns.  The soak replays 1,000 arrivals at 1.5x the
    coalesced capacity with deadlines of ten batch costs.  Generation is
    seed-derived, and arrivals, costs and the coalescer all run on
    simulated time, so every figure here is a behaviour pin, not a
    timing.
    """

    SEED = 20231128

    @pytest.fixture(scope="class")
    def truth_run(self):
        from repro.prediction import ColumnarMosPredictor
        from repro.telemetry import GeneratorConfig
        from repro.telemetry.vectorized import VectorizedCallEngine

        config = GeneratorConfig(
            n_calls=300, seed=self.SEED, mos_sample_rate=0.5,
        )
        columns, truth = (
            VectorizedCallEngine(config).generate_with_ground_truth()
        )
        return columns, truth, ColumnarMosPredictor().fit_columns(columns)

    def test_trained_model_beats_the_emodel_prior(self, truth_run):
        """The rating-trained model sees the user; the prior cannot."""
        from repro.prediction import emodel_prior_mos, evaluate_ground_truth

        columns, truth, model = truth_run
        trained = evaluate_ground_truth(
            model.predict_columns(columns), truth, columns.platform,
        )
        prior = evaluate_ground_truth(
            emodel_prior_mos(columns), truth, columns.platform,
        )
        assert trained.mae < prior.mae
        assert trained.mae == pytest.approx(0.24068171235830008, rel=1e-9)
        assert prior.mae == pytest.approx(0.3496746458395482, rel=1e-9)
        assert trained.bias == pytest.approx(0.03823660734830038, rel=1e-9)
        assert prior.bias == pytest.approx(0.34344122581012954, rel=1e-9)

    def test_full_scale_p99_coalesced_latency(self, truth_run):
        import numpy as np

        columns, _, model = truth_run
        coalescer = CoalescerConfig(max_batch=16, max_delay_s=0.01)
        server, _, engine = synthetic_prediction_server(
            columns, model, seed=self.SEED, coalescer=coalescer,
            max_pending=16,
        )
        batch_cost = engine.cost_model.batch_cost_s(
            coalescer.max_batch * len(columns)
        )
        rate = 1.5 * coalescer.max_batch / batch_cost
        rng = derive(self.SEED, "prediction", "perf-soak")
        at_s = np.cumsum(rng.exponential(1.0 / rate, 1000))
        arrivals = [
            Arrival(
                at_s=float(t),
                priority="interactive" if i % 8 == 0 else "batch",
                deadline_s=10.0 * batch_cost,
            )
            for i, t in enumerate(at_s)
        ]
        report = run_prediction_soak(server, arrivals)
        assert report.verdict() == Verdict()
        assert (report.submitted, report.served, report.served_degraded,
                report.shed) == (1000, 723, 95, 182)
        assert report.p99_latency_s == 0.500942
        assert report.mean_coalesced == pytest.approx(
            4.173469387755102, rel=1e-9
        )
        assert report.max_overrun_s == pytest.approx(
            0.0015819999999999723, rel=1e-9
        )
