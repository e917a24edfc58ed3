"""The serving-side prediction engine and its cost/degradation ladder.

:class:`PredictionEngine` binds a fitted
:class:`~repro.prediction.model.ColumnarMosPredictor` to one columnar
block and answers row-indexed prediction requests under a deadline.
The ladder has exactly two rungs:

1. **Full model** — one vectorized ``predict_columns`` call over the
   batch's rows, when the remaining deadline budget covers the model's
   estimated per-batch cost.
2. **E-model prior** — the cheaper, training-free
   :func:`~repro.prediction.emodel.emodel_prior_mos`, marked
   ``degraded``, when the budget does not.  The fallback runs even if
   the budget cannot cover *it* either: answering late-but-bounded
   beats never answering, and the overrun is then at most one
   (fallback) batch cost — the invariant the soak asserts.

Costs come from an explicit :class:`PredictionCostModel` blended with a
clock-measured EWMA of observed batch costs, never from direct
``time.*`` calls — this module is covered by the clock-discipline lint.
With ``charge_clock=True`` the engine *sleeps* the modelled cost on the
injected clock, which is how the deterministic soaks make compute time
visible to deadlines on a :class:`~repro.resilience.clock.ManualClock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError, ConfigError
from repro.netsim.mitigation import MitigationStack
from repro.netsim.qoe import QoeModel
from repro.perf.columnar import ParticipantColumns
from repro.prediction.emodel import emodel_prior_mos
from repro.prediction.model import ColumnarMosPredictor
from repro.resilience.clock import Clock
from repro.serving.deadline import Deadline

#: Weight of the newest observation in the cost EWMA.
_EWMA_ALPHA = 0.3

#: The cost model's fixed per-batch dispatch cost.
BASE_S = 0.002

#: The cost model's marginal cost per predicted row.
PER_ROW_S = 2e-6

#: The E-model prior's cost as a fraction of the full model's (it skips
#: standardisation and the trained weights, so it is strictly cheaper).
FALLBACK_SCALE = 0.25


class PredictionCostModel:
    """Affine per-batch cost model for the deadline ladder:
    ``BASE_S + PER_ROW_S * n_rows``, and :data:`FALLBACK_SCALE` of that
    for the E-model prior."""

    def batch_cost_s(self, n_rows: int) -> float:
        return BASE_S + PER_ROW_S * n_rows

    def fallback_cost_s(self, n_rows: int) -> float:
        return FALLBACK_SCALE * self.batch_cost_s(n_rows)


@dataclass(frozen=True)
class MosPredictionAnswer:
    """One query's slice of a (possibly coalesced) prediction batch."""

    predictions: np.ndarray
    rows: Tuple[int, ...]
    model: str                 # "ridge" (full) or "emodel" (fallback)
    degraded: bool
    batch_rows: int            # rows in the vectorized call that served it
    coalesced: int             # queries merged into that call

    def summary(self) -> str:
        mean = float(self.predictions.mean()) if len(self.predictions) else 0.0
        return (
            f"{len(self.predictions)} prediction(s) via {self.model}"
            f"{' (degraded)' if self.degraded else ''}, mean MOS "
            f"{mean:.2f}, batch of {self.batch_rows} row(s) "
            f"across {self.coalesced} quer{'y' if self.coalesced == 1 else 'ies'}"
        )


class PredictionEngine:
    """Deadline-aware batched inference over one columnar block."""

    def __init__(
        self,
        model: ColumnarMosPredictor,
        columns: ParticipantColumns,
        clock: Clock,
        cost_model: Optional[PredictionCostModel] = None,
        charge_clock: bool = False,
        qoe_model: Optional[QoeModel] = None,
        stack: Optional[MitigationStack] = None,
    ) -> None:
        if not model.is_fitted:
            raise AnalysisError(
                "prediction engine requires a fitted model; call "
                "fit_columns first"
            )
        if len(columns) == 0:
            raise ConfigError("prediction engine requires a non-empty block")
        self._model = model
        self._columns = columns
        self._clock = clock
        self.cost_model = cost_model or PredictionCostModel()
        self._charge_clock = charge_clock
        self._qoe_model = qoe_model
        self._stack = stack
        self._observed_per_row_s: Optional[float] = None
        # Monotonic serving counters (exposed via metrics()).
        self.batches = 0
        self.rows_predicted = 0
        self.fallback_batches = 0
        self.fallback_rows = 0
        self.coalesced_queries = 0

    @property
    def model(self) -> ColumnarMosPredictor:
        return self._model

    @property
    def n_rows(self) -> int:
        return len(self._columns)

    def estimated_batch_cost_s(self, n_rows: int) -> float:
        """Configured cost blended with the observed per-row EWMA.

        The estimate never drops below the configured model — a few
        lucky fast batches must not talk the ladder into missing
        deadlines — but it rises when measured costs exceed it.
        """
        configured = self.cost_model.batch_cost_s(n_rows)
        if self._observed_per_row_s is None:
            return configured
        observed = BASE_S + self._observed_per_row_s * n_rows
        return max(configured, observed)

    def _observe(self, elapsed_s: float, n_rows: int) -> None:
        if elapsed_s <= 0 or n_rows <= 0:
            return
        per_row = elapsed_s / n_rows
        if self._observed_per_row_s is None:
            self._observed_per_row_s = per_row
        else:
            self._observed_per_row_s += _EWMA_ALPHA * (
                per_row - self._observed_per_row_s
            )

    def check_rows(self, rows: Optional[Tuple[int, ...]]) -> np.ndarray:
        """Validate a query's row indices against the bound block."""
        if rows is None:
            return np.arange(self.n_rows, dtype=np.intp)
        idx = np.asarray(rows, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_rows):
            raise ConfigError(
                f"prediction rows out of range for a block of "
                f"{self.n_rows} row(s)"
            )
        return idx

    def predict_rows(
        self,
        rows: np.ndarray,
        deadline: Optional[Deadline] = None,
        coalesced: int = 1,
    ) -> MosPredictionAnswer:
        """One vectorized batch through the degradation ladder."""
        idx = np.asarray(rows, dtype=np.intp)
        n = int(idx.size)
        degraded = (
            deadline is not None
            and deadline.remaining() < self.estimated_batch_cost_s(n)
        )
        started = self._clock.now()
        if degraded:
            predictions = emodel_prior_mos(
                self._columns, idx,
                model=self._qoe_model, stack=self._stack,
            )
            charged = self.cost_model.fallback_cost_s(n)
        else:
            predictions = self._model.predict_columns(self._columns, idx)
            charged = self.estimated_batch_cost_s(n)
        if self._charge_clock:
            self._clock.sleep(charged)
        else:
            self._observe(self._clock.now() - started, n)
        self.batches += 1
        self.rows_predicted += n
        self.coalesced_queries += coalesced
        if degraded:
            self.fallback_batches += 1
            self.fallback_rows += n
        return MosPredictionAnswer(
            predictions=predictions,
            rows=tuple(int(i) for i in idx),
            model="emodel" if degraded else "ridge",
            degraded=degraded,
            batch_rows=n,
            coalesced=coalesced,
        )

    def metrics(self) -> Dict[str, float]:
        return {
            "batches": self.batches,
            "rows_predicted": self.rows_predicted,
            "fallback_batches": self.fallback_batches,
            "fallback_rows": self.fallback_rows,
            "coalesced_queries": self.coalesced_queries,
            "mean_batch_rows": (
                self.rows_predicted / self.batches if self.batches else 0.0
            ),
            "mean_coalesced": (
                self.coalesced_queries / self.batches if self.batches else 0.0
            ),
        }
