"""Grading predictions against the simulator's ground-truth QoE.

The paper's operators can only validate MOS predictions against the
sparse ratings users volunteer; our simulator knows the *experienced*
per-session MOS (the quality each participant actually saw, before
feedback bias and rounding), so we can measure true error.  This module
computes overall and per-platform MAE/bias, reusing
:class:`~repro.core.stats.BinGrouping` for the group-by — platforms map
to integer bin keys, one grouping is built, and both the absolute and
the signed error columns reduce against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.stats import bin_grouping
from repro.errors import AnalysisError
from repro.io.tables import format_left_table


@dataclass(frozen=True)
class PlatformErrors:
    """Prediction error for one platform's sessions."""

    platform: str
    mae: float
    bias: float
    n: int


@dataclass(frozen=True)
class GroundTruthReport:
    """Prediction error vs the simulator's experienced QoE."""

    mae: float
    bias: float
    n: int
    per_platform: Tuple[PlatformErrors, ...]

    def as_dict(self) -> dict:
        return {
            "mae": round(self.mae, 9),
            "bias": round(self.bias, 9),
            "n": self.n,
            "per_platform": {
                p.platform: {
                    "mae": round(p.mae, 9),
                    "bias": round(p.bias, 9),
                    "n": p.n,
                }
                for p in self.per_platform
            },
        }

    def table(self) -> str:
        """Fixed-width per-platform error table (CLI / log friendly)."""
        return format_left_table(("platform", "mae", "bias", "n"), (
            (p.platform, f"{p.mae:.4f}", f"{p.bias:+.4f}", str(p.n))
            for p in self.per_platform + (
                PlatformErrors("(all)", self.mae, self.bias, self.n),
            )
        ))


def evaluate_ground_truth(
    predictions: Sequence[float],
    truth: Sequence[float],
    platforms: Sequence[str],
) -> GroundTruthReport:
    """MAE and signed bias of ``predictions`` vs ``truth``, per platform.

    ``bias`` is ``mean(prediction - truth)``: positive means the model
    flatters the experience, negative means it undersells it.
    """
    pred = np.asarray(predictions, dtype=float)
    actual = np.asarray(truth, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise AnalysisError(
            f"predictions and truth must be equal-length 1-D arrays: "
            f"{pred.shape} vs {actual.shape}"
        )
    if len(platforms) != len(pred):
        raise AnalysisError(
            f"platforms must align with predictions: "
            f"{len(platforms)} != {len(pred)}"
        )
    if len(pred) == 0:
        raise AnalysisError("cannot evaluate zero predictions")
    errors = pred - actual
    names = sorted(set(platforms))
    index = {name: i for i, name in enumerate(names)}
    keys = np.array([index[p] for p in platforms], dtype=float)
    # Integer-centred edges: platform i falls in bin [i-0.5, i+0.5).
    grouping = bin_grouping(keys, np.arange(len(names) + 1) - 0.5)
    mae_curve = grouping.reduce(np.abs(errors), "mean")
    bias_curve = grouping.reduce(errors, "mean")
    per_platform = tuple(
        PlatformErrors(
            platform=name,
            mae=float(mae_curve.stat[i]),
            bias=float(bias_curve.stat[i]),
            n=int(grouping.counts[i]),
        )
        for i, name in enumerate(names)
    )
    return GroundTruthReport(
        mae=float(np.abs(errors).mean()),
        bias=float(errors.mean()),
        n=len(pred),
        per_platform=per_platform,
    )
