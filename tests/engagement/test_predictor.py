"""Tests for the §5 MOS predictor."""

import pytest

from repro.errors import AnalysisError
from repro.perf.columnar import participant_columns
from repro.prediction import (
    ALL_FEATURES,
    NETWORK_FEATURES,
    ColumnarMosPredictor,
    train_test_evaluate,
)


class TestMosPredictor:
    def test_fit_predict_in_range(self, small_dataset):
        rated = participant_columns(small_dataset.rated_participants())
        model = ColumnarMosPredictor().fit_columns(rated)
        predictions = model.predict_columns(rated)
        assert (predictions >= 1).all() and (predictions <= 5).all()

    def test_unfitted_predict_raises(self, small_dataset):
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor().predict_columns(
                participant_columns(list(small_dataset.participants())[:3])
            )

    def test_weights_exposed(self, small_dataset):
        model = ColumnarMosPredictor().fit_columns(
            participant_columns(small_dataset.rated_participants())
        )
        weights = model.weights()
        assert set(weights) == set(ALL_FEATURES)

    def test_rejects_unknown_feature(self):
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor(features=["shoe_size"])

    def test_rejects_empty_features(self):
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor(features=[])

    def test_rejects_negative_l2(self):
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor(l2=-1)

    def test_needs_enough_rated_sessions(self, small_dataset):
        rated = small_dataset.rated_participants()[:3]
        with pytest.raises(AnalysisError):
            ColumnarMosPredictor().fit_columns(participant_columns(rated))

    def test_predict_empty_returns_empty(self, small_dataset):
        model = ColumnarMosPredictor().fit_columns(
            participant_columns(small_dataset.rated_participants())
        )
        assert model.predict_columns(participant_columns([])).shape == (0,)


class TestTrainTestEvaluate:
    def test_report_fields(self, small_dataset):
        report = train_test_evaluate(small_dataset.participants())
        assert report.n_train > 0 and report.n_test > 0
        assert report.mae >= 0
        assert report.rmse >= report.mae - 1e-9
        assert -1 <= report.correlation <= 1

    def test_deterministic_split(self, small_dataset):
        a = train_test_evaluate(small_dataset.participants(), seed=5)
        b = train_test_evaluate(small_dataset.participants(), seed=5)
        assert a.mae == b.mae

    def test_engagement_features_add_signal(self, small_dataset):
        """§5's point: implicit actions help predict the explicit metric.

        With <100 rated sessions the single-split comparison is noisy, so
        the tolerance is loose here; the S3 benchmark asserts the ordering
        at scale (>1000 rated sessions)."""
        net_only = train_test_evaluate(
            small_dataset.participants(), features=NETWORK_FEATURES
        )
        with_engagement = train_test_evaluate(
            small_dataset.participants(), features=ALL_FEATURES
        )
        assert with_engagement.correlation >= net_only.correlation - 0.12

    def test_rejects_bad_test_share(self, small_dataset):
        with pytest.raises(AnalysisError):
            train_test_evaluate(small_dataset.participants(), test_share=1.5)
