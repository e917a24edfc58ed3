"""Robust aggregates over the MOS and sentiment columns.

The estimators themselves live in :mod:`repro.core.stats` (registered
in the ``BinGrouping`` reducer table so every curve accepts them by
name); this module applies them to the two aggregates the integrity
soak defends — MOS over the rated sessions and mean sentiment polarity
over a corpus.  Both read the columnar blocks
(:mod:`repro.perf.columnar`) and accept whatever
:func:`~repro.perf.columnar.participant_columns` /
:func:`~repro.perf.columnar.corpus_columns` accept.

``ESTIMATORS`` is the documented breakdown-point table
(``docs/integrity.md`` renders it): the contamination fraction each
estimator survives with bounded error.  The naive mean sits at 0 — one
adversarial sample moves it arbitrarily — which is exactly what the
ε-contamination soak demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import (
    median_of_means,
    resolve_statistic,
    trimmed_mean,
    winsorized_mean,
)
from repro.errors import AnalysisError
from repro.perf.columnar import corpus_columns, participant_columns

__all__ = [
    "ESTIMATORS",
    "EstimatorInfo",
    "median_of_means",
    "robust_mos",
    "robust_polarity",
    "trimmed_mean",
    "winsorized_mean",
]


@dataclass(frozen=True)
class EstimatorInfo:
    """One row of the estimator table: name, breakdown point, meaning."""

    statistic: str
    breakdown_point: str
    note: str


#: The documented breakdown-point table.  ``statistic`` values are the
#: reducer names every BinGrouping / curve_matrix / bin_statistic call
#: accepts.
ESTIMATORS: Tuple[EstimatorInfo, ...] = (
    EstimatorInfo(
        "mean", "0",
        "naive baseline: a single adversarial sample moves it "
        "arbitrarily far",
    ),
    EstimatorInfo(
        "trimmed_mean", "trim (default 0.1)",
        "drops floor(trim*n) samples per tail; contamination below the "
        "trim fraction lands in a discarded tail",
    ),
    EstimatorInfo(
        "winsorized_mean", "trim (default 0.1)",
        "clamps each tail to its trim-quantile neighbour; same "
        "breakdown as the trimmed mean, preserves sample size",
    ),
    EstimatorInfo(
        "median_of_means", "(ceil(k/2)-1)/n adversarial; ~0.5 per block",
        "median of k contiguous block means; survives while fewer than "
        "ceil(k/2) blocks are contaminated",
    ),
    EstimatorInfo(
        "median", "0.5",
        "maximal breakdown; reported for reference in the curves",
    ),
)


def _reduce(values: np.ndarray, statistic: str) -> float:
    if len(values) == 0:
        raise AnalysisError(f"cannot aggregate zero values ({statistic})")
    return float(resolve_statistic(statistic)(values))


def robust_mos(
    dataset,
    statistic: str = "trimmed_mean",
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Aggregate the rated sessions' ratings.

    The block's ``rating`` column is NaN-sparse in session order, so the
    finite subset is the rated sessions in dataset order.  ``weights``
    (per rated session, in that order) selects the trust-weighted
    variant: zero-weight sessions are excluded *before* the reducer
    runs, which is how fraud-flagged raters drop out.
    """
    rating = participant_columns(dataset).rating
    ratings = rating[np.isfinite(rating)]
    return _reduce(_apply_weights(ratings, weights), statistic)


def robust_polarity(
    corpus,
    analyzer=None,
    statistic: str = "trimmed_mean",
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Aggregate per-post sentiment polarity via the sentiment block."""
    block = corpus_columns(corpus).sentiment(analyzer)
    return _reduce(_apply_weights(block.polarity, weights), statistic)


def _apply_weights(
    values: np.ndarray, weights: Optional[Sequence[float]]
) -> np.ndarray:
    """Drop zero-weight samples; reject malformed weight vectors.

    Trust weights are currently binary in effect (suspect contributors
    get weight 0), so weighting composes with any reducer as a
    pre-filter.
    """
    if weights is None:
        return values
    w = np.asarray(weights, dtype=float)
    if w.shape != values.shape:
        raise AnalysisError(
            f"weights must align with values: {w.shape} != {values.shape}"
        )
    if np.any(w < 0):
        raise AnalysisError("trust weights must be non-negative")
    kept = values[w > 0]
    if len(kept) == 0:
        raise AnalysisError("all samples were down-weighted to zero")
    return kept
