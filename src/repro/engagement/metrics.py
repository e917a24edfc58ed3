"""Curve normalisation for the engagement figures."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AnalysisError


def normalize_to_best(stat: Sequence[float]) -> np.ndarray:
    """Scale a curve so its best (largest) non-NaN value is 100.

    The paper's Fig. 4 x-axis is "normalized" engagement; several of its
    headline numbers ("reduce by ~20%") are relative to the best bin.
    """
    arr = np.asarray(stat, dtype=float)
    finite = arr[~np.isnan(arr)]
    if len(finite) == 0:
        raise AnalysisError("cannot normalize an all-NaN curve")
    best = finite.max()
    if best <= 0:
        raise AnalysisError("cannot normalize a non-positive curve")
    return 100.0 * arr / best
