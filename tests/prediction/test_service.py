"""The prediction engine's cost model and degradation ladder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.usaas.query import UsaasQuery
from repro.core.usaas.service import UsaasService
from repro.errors import AnalysisError, ConfigError, QueryError
from repro.perf.columnar import ParticipantColumns
from repro.prediction import (
    ColumnarMosPredictor,
    MosPredictionAnswer,
    PredictionCostModel,
    PredictionEngine,
    emodel_prior_from_arrays,
    emodel_prior_mos,
)
from repro.resilience.clock import ManualClock
from repro.serving.deadline import Deadline


def _engine(rated_columns, fitted_model, **kwargs):
    clock = ManualClock()
    return PredictionEngine(fitted_model, rated_columns, clock=clock,
                            **kwargs), clock


class TestCostModel:
    def test_fallback_is_strictly_cheaper(self):
        cost = PredictionCostModel()
        assert cost.fallback_cost_s(100) < cost.batch_cost_s(100)

    def test_estimate_never_drops_below_configured(self, rated_columns,
                                                   fitted_model):
        engine, clock = _engine(rated_columns, fitted_model)
        configured = engine.cost_model.batch_cost_s(10)
        # A lucky fast batch must not lower the estimate...
        engine._observe(1e-9, 10)
        assert engine.estimated_batch_cost_s(10) == configured
        # ...but a slow one raises it.
        engine._observe(1.0, 10)
        assert engine.estimated_batch_cost_s(10) > configured


class TestValidation:
    def test_requires_fitted_model(self, rated_columns):
        with pytest.raises(AnalysisError):
            PredictionEngine(ColumnarMosPredictor(), rated_columns,
                             clock=ManualClock())

    def test_requires_non_empty_block(self, fitted_model):
        with pytest.raises(ConfigError):
            PredictionEngine(fitted_model, ParticipantColumns.from_records([]),
                             clock=ManualClock())

    def test_check_rows_rejects_out_of_range(self, rated_columns,
                                             fitted_model):
        engine, _ = _engine(rated_columns, fitted_model)
        with pytest.raises(ConfigError):
            engine.check_rows((0, engine.n_rows))
        assert engine.check_rows(None).shape == (engine.n_rows,)
        assert engine.check_rows((3, 1)).tolist() == [3, 1]


class TestLadder:
    def test_roomy_deadline_uses_the_full_model(self, rated_columns,
                                                fitted_model):
        engine, clock = _engine(rated_columns, fitted_model)
        rows = engine.check_rows((0, 1, 2))
        answer = engine.predict_rows(
            rows, deadline=Deadline.start(clock, budget_s=10.0)
        )
        assert isinstance(answer, MosPredictionAnswer)
        assert not answer.degraded and answer.model == "ridge"
        expected = fitted_model.predict_columns(rated_columns, rows)
        assert answer.predictions.tobytes() == expected.tobytes()

    def test_tight_deadline_falls_back_to_emodel(self, rated_columns,
                                                 fitted_model):
        engine, clock = _engine(rated_columns, fitted_model)
        rows = engine.check_rows(None)
        tight = engine.estimated_batch_cost_s(len(rows)) / 2
        answer = engine.predict_rows(
            rows, deadline=Deadline.start(clock, budget_s=tight)
        )
        assert answer.degraded and answer.model == "emodel"
        expected = emodel_prior_mos(rated_columns, rows)
        assert answer.predictions.tobytes() == expected.tobytes()
        assert engine.fallback_batches == 1

    def test_no_deadline_never_degrades(self, rated_columns, fitted_model):
        engine, _ = _engine(rated_columns, fitted_model)
        answer = engine.predict_rows(engine.check_rows(None))
        assert not answer.degraded

    def test_charge_clock_advances_the_injected_clock(self, rated_columns,
                                                      fitted_model):
        engine, clock = _engine(rated_columns, fitted_model,
                                charge_clock=True)
        rows = engine.check_rows((0, 1))
        before = clock.now()
        engine.predict_rows(rows)
        assert clock.now() - before == pytest.approx(
            engine.cost_model.batch_cost_s(2)
        )

    def test_fallback_charges_the_cheaper_cost(self, rated_columns,
                                               fitted_model):
        engine, clock = _engine(rated_columns, fitted_model,
                                charge_clock=True)
        rows = engine.check_rows(None)
        deadline = Deadline.start(clock, budget_s=1e-6)
        before = clock.now()
        answer = engine.predict_rows(rows, deadline=deadline)
        assert answer.degraded
        assert clock.now() - before == pytest.approx(
            engine.cost_model.fallback_cost_s(len(rows))
        )

    def test_metrics_account_batches_and_rows(self, rated_columns,
                                              fitted_model):
        engine, _ = _engine(rated_columns, fitted_model)
        engine.predict_rows(engine.check_rows((0, 1)), coalesced=2)
        engine.predict_rows(engine.check_rows((2,)))
        metrics = engine.metrics()
        assert metrics["batches"] == 2
        assert metrics["rows_predicted"] == 3
        assert metrics["coalesced_queries"] == 3
        assert metrics["mean_coalesced"] == pytest.approx(1.5)


class TestEmodelPrior:
    def test_prior_is_in_mos_range(self, rated_columns):
        prior = emodel_prior_mos(rated_columns)
        assert prior.shape == (len(rated_columns),)
        assert np.isfinite(prior).all()
        assert prior.min() >= 1.0 and prior.max() <= 5.0

    def test_worse_network_scores_worse(self):
        good = emodel_prior_from_arrays(
            np.array([30.0]), np.array([0.1]),
            np.array([5.0]), np.array([100.0]),
        )
        bad = emodel_prior_from_arrays(
            np.array([400.0]), np.array([8.0]),
            np.array([60.0]), np.array([1.0]),
        )
        assert bad[0] < good[0]


class TestQuerySurface:
    def test_rows_require_predict_mos_kind(self):
        with pytest.raises(QueryError):
            UsaasQuery(network="starlink", rows=(1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            UsaasQuery(network="starlink", kind="mystery")

    def test_rows_normalised_to_int_tuple(self):
        query = UsaasQuery(network="starlink", kind="predict_mos",
                           rows=[np.int64(3), 1])
        assert query.rows == (3, 1)

    def test_empty_or_negative_rows_rejected(self):
        with pytest.raises(QueryError):
            UsaasQuery(network="starlink", kind="predict_mos", rows=())
        with pytest.raises(QueryError):
            UsaasQuery(network="starlink", kind="predict_mos", rows=(-1,))

    def test_service_answer_refuses_predictions(self):
        service = UsaasService()
        with pytest.raises(QueryError):
            service.answer(
                UsaasQuery(network="starlink", kind="predict_mos")
            )
