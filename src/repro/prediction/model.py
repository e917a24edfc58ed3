"""§5's MOS predictor: ridge regression from engagement + network columns.

The paper mentions (*"omitted for brevity"*) using AI/ML to predict MOS
from user engagement and network conditions — the piece that lets USaaS
turn abundant implicit signals into the sparse explicit metric every
stakeholder already understands.  :class:`ColumnarMosPredictor` is that
model: ridge regression with standardised features (closed-form, numpy
only), fitted on the sparse ``rating`` column of a
:class:`~repro.perf.columnar.ParticipantColumns` block and predicting
for every row in one vectorized call.  Network aggregates come from
:meth:`ParticipantColumns.metric` and engagement percentages from the
block's attribute arrays, so neither training nor inference touches a
record object.

The design matrix is a ``(k, n)`` C-contiguous stack of feature columns,
transposed, and the normal-equation solve is one fixed op sequence, so
results are a pure function of the rows and their order.
``tests/prediction/test_model.py`` pins weights and predictions
``tobytes``-equal to a record-at-a-time oracle.

:func:`train_test_evaluate` grades the model on held-out ratings,
comparing a network-only feature set against network+engagement to
quantify how much signal the user actions add.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import pearson
from repro.errors import AnalysisError, InsufficientRatingsError
from repro.perf.columnar import ParticipantColumns, participant_columns
from repro.rng import derive
from repro.telemetry.schema import (
    ENGAGEMENT_METRICS,
    NETWORK_METRICS,
    ParticipantRecord,
)

NETWORK_FEATURES: Tuple[str, ...] = NETWORK_METRICS
ENGAGEMENT_FEATURES: Tuple[str, ...] = ENGAGEMENT_METRICS
ALL_FEATURES: Tuple[str, ...] = NETWORK_FEATURES + ENGAGEMENT_FEATURES


@dataclass(frozen=True)
class PredictionReport:
    """Held-out evaluation of a fitted predictor."""

    mae: float
    rmse: float
    correlation: float
    n_train: int
    n_test: int
    features: Tuple[str, ...]


class ColumnarMosPredictor:
    """Ridge regression from columnar session features to the 1–5 rating.

    Features are standardised on the training rows; the closed-form
    solution ``(X'X + lambda I)^-1 X'y`` keeps the implementation free of
    external ML dependencies.
    """

    def __init__(
        self,
        features: Sequence[str] = ALL_FEATURES,
        l2: float = 1.0,
        network_stat: str = "mean",
    ) -> None:
        unknown = [f for f in features if f not in ALL_FEATURES]
        if unknown:
            raise AnalysisError(f"unknown features: {unknown}")
        if not features:
            raise AnalysisError("at least one feature required")
        if l2 < 0:
            raise AnalysisError("l2 must be non-negative")
        self._features = tuple(features)
        self._l2 = l2
        self._network_stat = network_stat
        self._weights: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._sd: Optional[np.ndarray] = None
        self._intercept: float = 0.0

    @property
    def features(self) -> Tuple[str, ...]:
        return self._features

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def _feature_column(self, cols: ParticipantColumns, name: str) -> np.ndarray:
        if name in NETWORK_FEATURES:
            return cols.metric(name, self._network_stat)
        return np.asarray(getattr(cols, name), dtype=float)

    def _design(
        self,
        cols: ParticipantColumns,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # Stack the k feature columns into a (k, n) C-contiguous array,
        # then view it transposed.  The construction (not just the
        # values) fixes the downstream reductions and BLAS calls, which
        # is what keeps fits bit-for-bit reproducible.
        columns = []
        for name in self._features:
            col = self._feature_column(cols, name)
            columns.append(col if rows is None else col[rows])
        return np.array(columns, dtype=float).T

    def fit_columns(self, cols: ParticipantColumns) -> "ColumnarMosPredictor":
        """Fit on the block's rated rows (NaN in ``rating`` = unrated).

        Raises:
            InsufficientRatingsError: fewer rated rows than the model
                needs — e.g. a corpus generated with
                ``FeedbackModel.sample_rate=0`` — *before* any linear
                algebra runs, so the failure names the rating count
                instead of surfacing as a numpy ``LinAlgError``.
        """
        rating = np.asarray(cols.rating, dtype=float)
        rated = np.flatnonzero(np.isfinite(rating))
        required = len(self._features) + 2
        if len(rated) < required:
            raise InsufficientRatingsError(len(rated), required)
        x = self._design(cols, rated)
        y = rating[rated]
        self._mean = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        self._sd = sd
        xs = (x - self._mean) / self._sd
        n_features = xs.shape[1]
        gram = xs.T @ xs + self._l2 * np.eye(n_features)
        self._weights = np.linalg.solve(gram, xs.T @ (y - y.mean()))
        self._intercept = float(y.mean())
        return self

    def predict_columns(
        self,
        cols: ParticipantColumns,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predict MOS for ``rows`` of the block (all rows when None)."""
        if not self.is_fitted:
            raise AnalysisError("predictor is not fitted")
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.size == 0:
                return np.array([])
        elif len(cols) == 0:
            return np.array([])
        xs = (self._design(cols, rows) - self._mean) / self._sd
        raw = xs @ self._weights + self._intercept
        return np.clip(raw, 1.0, 5.0)

    def weights(self) -> Dict[str, float]:
        """Standardised coefficient per feature (importance proxy)."""
        if not self.is_fitted:
            raise AnalysisError("predictor is not fitted")
        return dict(zip(self._features, (float(w) for w in self._weights)))


def _report(
    predictions: np.ndarray,
    actual: np.ndarray,
    n_train: int,
    features: Sequence[str],
) -> PredictionReport:
    errors = predictions - actual
    correlation = pearson(predictions, actual) if len(actual) >= 2 else 0.0
    return PredictionReport(
        mae=float(np.abs(errors).mean()),
        rmse=float(np.sqrt((errors**2).mean())),
        correlation=correlation,
        n_train=n_train,
        n_test=len(actual),
        features=tuple(features),
    )


def train_test_evaluate(
    sessions: Iterable[ParticipantRecord],
    features: Sequence[str] = ALL_FEATURES,
    test_share: float = 0.3,
    l2: float = 1.0,
    seed: int = 0,
) -> PredictionReport:
    """Split the rated sessions, fit, and evaluate on the held-out part.

    The split comes from the ``derive(seed, "predictor", "split")``
    substream, so it is byte-identical across runs.
    Both halves keep the permutation's row order.
    """
    if not 0 < test_share < 1:
        raise AnalysisError("test_share must be in (0, 1)")
    rated = [p for p in sessions if p.rating is not None]
    if len(rated) < 20:
        raise InsufficientRatingsError(len(rated), 20)
    rng = derive(seed, "predictor", "split")
    order = rng.permutation(len(rated)).tolist()
    n_test = max(1, int(len(rated) * test_share))
    test = [rated[i] for i in order[:n_test]]
    train = [rated[i] for i in order[n_test:]]

    model = ColumnarMosPredictor(features=features, l2=l2)
    model.fit_columns(participant_columns(train))
    predictions = model.predict_columns(participant_columns(test))
    actual = np.array([float(p.rating) for p in test])
    return _report(predictions, actual, len(train), features)
