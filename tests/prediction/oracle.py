"""Record-at-a-time oracles for the MOS predictor and its evaluators.

:class:`MosPredictor` is the ridge model as it ran on participant
records before :class:`~repro.prediction.ColumnarMosPredictor` became
the only implementation; :func:`train_test_evaluate_records` is the
evaluator as it ran on top of it.  They live here only so tests can pin the columnar model
``tobytes``-equal and the evaluators ``==`` against them; nothing in
``src/`` calls them, and no columnar code runs inside them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import pearson
from repro.errors import AnalysisError, InsufficientRatingsError
from repro.prediction.model import (
    ALL_FEATURES,
    NETWORK_FEATURES,
    PredictionReport,
)
from repro.rng import derive
from repro.telemetry.schema import ParticipantRecord


class MosPredictor:
    """Ridge regression from participant records to the 1–5 rating."""

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

    def _design(self, sessions: List[ParticipantRecord]) -> np.ndarray:
        columns = []
        for name in self._features:
            if name in NETWORK_FEATURES:
                columns.append(
                    [p.metric(name, self._network_stat) for p in sessions]
                )
            else:
                columns.append([getattr(p, name) for p in sessions])
        return np.array(columns, dtype=float).T

    def fit(self, sessions: Iterable[ParticipantRecord]) -> "MosPredictor":
        rated = [p for p in sessions if p.rating is not None]
        if len(rated) < len(self._features) + 2:
            raise InsufficientRatingsError(len(rated), len(self._features) + 2)
        x = self._design(rated)
        y = np.array([float(p.rating) for p in rated])
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

    def predict(self, sessions: Iterable[ParticipantRecord]) -> np.ndarray:
        if not self.is_fitted:
            raise AnalysisError("predictor is not fitted")
        pool = list(sessions)
        if not pool:
            return np.array([])
        xs = (self._design(pool) - self._mean) / self._sd
        raw = xs @ self._weights + self._intercept
        return np.clip(raw, 1.0, 5.0)

    def weights(self) -> Dict[str, float]:
        if not self.is_fitted:
            raise AnalysisError("predictor is not fitted")
        return dict(zip(self._features, (float(w) for w in self._weights)))


def train_test_evaluate_records(
    sessions: Iterable[ParticipantRecord],
    features: Sequence[str] = ALL_FEATURES,
    test_share: float = 0.3,
    l2: float = 1.0,
    seed: int = 0,
) -> PredictionReport:
    if not 0 < test_share < 1:
        raise AnalysisError("test_share must be in (0, 1)")
    rated = [p for p in sessions if p.rating is not None]
    if len(rated) < 20:
        raise InsufficientRatingsError(len(rated), 20)
    rng = derive(seed, "predictor", "split")
    order = rng.permutation(len(rated))
    n_test = max(1, int(len(rated) * test_share))
    test = [rated[i] for i in order[:n_test]]
    train = [rated[i] for i in order[n_test:]]

    model = MosPredictor(features=features, l2=l2).fit(train)
    predictions = model.predict(test)
    actual = np.array([float(p.rating) for p in test])
    errors = predictions - actual
    correlation = pearson(predictions, actual) if len(test) >= 2 else 0.0
    return PredictionReport(
        mae=float(np.abs(errors).mean()),
        rmse=float(np.sqrt((errors**2).mean())),
        correlation=correlation,
        n_train=len(train),
        n_test=len(test),
        features=tuple(features),
    )
