"""Columnar fit/predict and the evaluators must equal the record oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigError, InsufficientRatingsError
from repro.perf.columnar import ParticipantColumns, participant_columns
from repro.prediction import (
    ALL_FEATURES,
    NETWORK_FEATURES,
    ColumnarMosPredictor,
    kfold_evaluate,
    train_test_evaluate,
)
from repro.telemetry import CallDatasetGenerator, GeneratorConfig
from tests.prediction.oracle import (
    MosPredictor,
    kfold_evaluate_records,
    train_test_evaluate_records,
)


def _pair(seed):
    config = GeneratorConfig(n_calls=40, seed=seed, mos_sample_rate=0.5)
    dataset = CallDatasetGenerator(config).generate()
    return list(dataset.participants()), ParticipantColumns.from_dataset(dataset)


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_weights_and_predictions_match_record_path(self, seed):
        parts, cols = _pair(seed)
        record = MosPredictor().fit(parts)
        columnar = ColumnarMosPredictor().fit_columns(cols)
        assert set(record.weights()) == set(columnar.weights())
        for feature, value in record.weights().items():
            assert (
                np.float64(value).tobytes()
                == np.float64(columnar.weights()[feature]).tobytes()
            ), (seed, feature)
        assert (
            record.predict(parts).tobytes()
            == columnar.predict_columns(cols).tobytes()
        )

    @pytest.mark.parametrize("features", [
        ("latency_ms", "loss_pct"),
        ("presence_pct",),
        ALL_FEATURES[:4],
    ])
    def test_feature_subsets_match_too(self, features):
        parts, cols = _pair(101)
        record = MosPredictor(features=features).fit(parts)
        columnar = ColumnarMosPredictor(features=features).fit_columns(cols)
        assert (
            record.predict(parts).tobytes()
            == columnar.predict_columns(cols).tobytes()
        )

    def test_row_subset_predictions_match_the_full_batch(self, rated_columns,
                                                         fitted_model):
        # Same rows, same model — only BLAS shape-dependent summation
        # order may differ, so equality is numeric, not byte-level
        # (the byte contract is record-vs-columnar on the same rows).
        full = fitted_model.predict_columns(rated_columns)
        rows = np.array([0, 5, 11], dtype=np.intp)
        subset = fitted_model.predict_columns(rated_columns, rows)
        assert subset.shape == (3,)
        np.testing.assert_allclose(subset, full[rows], rtol=1e-12)


class TestValidation:
    def test_unfitted_predict_raises(self, rated_columns):
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor().predict_columns(rated_columns)

    def test_unknown_feature_rejected(self):
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor(features=["shoe_size"])

    def test_empty_columns_predict_empty(self, fitted_model):
        cols = ParticipantColumns.from_records([])
        assert len(fitted_model.predict_columns(cols)) == 0


class TestInsufficientRatings:
    def test_zero_rating_block_raises_typed_error(self):
        config = GeneratorConfig(n_calls=10, seed=7, mos_sample_rate=0.0)
        cols = ParticipantColumns.from_dataset(
            CallDatasetGenerator(config).generate()
        )
        with pytest.raises(InsufficientRatingsError) as exc_info:
            ColumnarMosPredictor().fit_columns(cols)
        assert exc_info.value.n_rated == 0
        assert "0 rated session(s)" in str(exc_info.value)

    def test_error_is_both_config_and_analysis(self):
        err = InsufficientRatingsError(3, 9)
        assert isinstance(err, ConfigError)
        assert isinstance(err, AnalysisError)

    def test_error_pickles_round_trip(self):
        import pickle

        err = pickle.loads(pickle.dumps(InsufficientRatingsError(3, 9)))
        assert (err.n_rated, err.n_required) == (3, 9)

    def test_record_path_raises_the_same_error(self):
        config = GeneratorConfig(n_calls=10, seed=7, mos_sample_rate=0.0)
        parts = list(CallDatasetGenerator(config).generate().participants())
        with pytest.raises(InsufficientRatingsError):
            MosPredictor().fit(parts)
        # Records routed through participant_columns hit the same floor.
        with pytest.raises(InsufficientRatingsError):
            ColumnarMosPredictor().fit_columns(participant_columns(parts))


class TestSplitDeterminism:
    """Evaluation splits come from derive() substreams: stable per seed."""

    def test_kfold_is_a_pure_function_of_seed_and_data(self, rated_dataset):
        parts = list(rated_dataset.participants())
        a = kfold_evaluate(parts, seed=11)
        # Interleave unrelated global RNG activity: must not perturb.
        np.random.default_rng().random(1000)
        b = kfold_evaluate(list(rated_dataset.participants()), seed=11)
        assert a == b

    def test_train_test_split_is_seed_stable(self, rated_dataset):
        parts = list(rated_dataset.participants())
        a = train_test_evaluate(parts, seed=11)
        b = train_test_evaluate(parts, seed=11)
        assert a == b
        assert a != train_test_evaluate(parts, seed=12)


@pytest.fixture(scope="module")
def sessions_by_seed():
    return {seed: _pair(seed)[0] for seed in (101, 202, 303)}


@pytest.mark.parametrize("seed", [101, 202, 303])
@pytest.mark.parametrize("features", [ALL_FEATURES, NETWORK_FEATURES],
                         ids=["all", "network"])
@pytest.mark.parametrize("split_seed", [0, 11])
class TestEvaluatorsMatchOracle:
    """Each split's block keeps the record path's row order, so the
    reports are ``==`` the oracle's — an order-changing block (e.g. an
    ``exclude=`` mask over the full block) differs in the last ulp."""

    def test_kfold(self, sessions_by_seed, seed, features, split_seed):
        parts = sessions_by_seed[seed]
        assert kfold_evaluate(
            parts, features=features, seed=split_seed
        ) == kfold_evaluate_records(parts, features=features, seed=split_seed)

    def test_train_test(self, sessions_by_seed, seed, features, split_seed):
        parts = sessions_by_seed[seed]
        assert train_test_evaluate(
            parts, features=features, seed=split_seed
        ) == train_test_evaluate_records(
            parts, features=features, seed=split_seed
        )
