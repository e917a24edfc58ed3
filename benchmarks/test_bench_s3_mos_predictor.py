"""S3 — §5's MOS predictor ("omitted for brevity" in the paper).

The USaaS pitch: implicit engagement signals are available for *every*
session, so predicting MOS from engagement + network conditions extends
the sparse explicit metric to full coverage.  The benchmark quantifies
how much predictive power each feature family carries.
"""

import pytest

from benchmarks.conftest import emit
from benchmarks.util import timed
from repro.io.tables import format_table
from repro.perf.columnar import participant_columns
from repro.prediction import (
    ALL_FEATURES,
    ENGAGEMENT_FEATURES,
    NETWORK_FEATURES,
    ColumnarMosPredictor,
    train_test_evaluate,
)

FEATURE_SETS = {
    "network only": NETWORK_FEATURES,
    "engagement only": ENGAGEMENT_FEATURES,
    "network + engagement": ALL_FEATURES,
}


class TestS3:
    def test_bench_s3_feature_families(self, benchmark, observational_dataset):
        def run():
            return {
                name: train_test_evaluate(
                    observational_dataset.participants(),
                    features=features, seed=7,
                )
                for name, features in FEATURE_SETS.items()
            }

        reports = timed(benchmark, run)
        rows = [
            [name, r.mae, r.rmse, r.correlation, r.n_train, r.n_test]
            for name, r in reports.items()
        ]
        emit("s3_mos_predictor", format_table(
            ["feature set", "MAE", "RMSE", "corr", "n_train", "n_test"],
            rows,
            title="S3 — MOS prediction from engagement + network (§5)",
        ))
        assert reports["network + engagement"].correlation > 0.3

    def test_engagement_adds_signal_over_network(self, benchmark,
                                                 observational_dataset):
        reports = timed(benchmark, lambda: {
            name: train_test_evaluate(
                observational_dataset.participants(), features=f, seed=7
            )
            for name, f in FEATURE_SETS.items()
        })
        assert (
            reports["network + engagement"].correlation
            >= reports["network only"].correlation - 0.02
        )

    def test_feature_importances_sensible(self, benchmark,
                                          observational_dataset):
        rated = participant_columns(observational_dataset.rated_participants())
        model = timed(benchmark, lambda: ColumnarMosPredictor().fit_columns(rated))
        weights = model.weights()
        emit("s3_feature_weights", format_table(
            ["feature", "standardised weight"],
            sorted(weights.items(), key=lambda kv: -abs(kv[1])),
            title="S3 — predictor feature weights",
        ))
        # Presence (the strongest MOS correlate, Fig. 4) carries weight.
        assert weights["presence_pct"] > 0
