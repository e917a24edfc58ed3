"""§5's MOS prediction as a first-class, perf-grade query surface.

The paper's USaaS vision needs MOS for *every* session while explicit
ratings cover well under 1 % of them.  This package closes that gap as
three layers:

* :mod:`repro.prediction.model` — :class:`ColumnarMosPredictor`, ridge
  regression trained on the sparse ``rating`` column of a
  :class:`~repro.perf.columnar.ParticipantColumns` block and predicting
  for every row in one vectorized call, plus the held-out evaluators
  :func:`kfold_evaluate` / :func:`train_test_evaluate`, which take
  participant records;
* :mod:`repro.prediction.emodel` — the vectorized E-model prior
  (:func:`emodel_prior_mos`), the deadline-pressure fallback that needs
  no training and no engagement features;
* :mod:`repro.prediction.service` / :mod:`repro.prediction.coalescer`
  — the serving side: a :class:`PredictionEngine` bound to a columnar
  block plus a :class:`PredictionCoalescer` that micro-batches
  batch-class ``predict_mos`` queries in front of the admission
  controller, with a :class:`PredictionCostModel`-driven fallback
  ladder so a prediction never blows its deadline by more than one
  batch cost.

:mod:`repro.prediction.evaluate` grades predictions against the
simulator's ground-truth experienced QoE (something the paper's
operators cannot do), overall and per platform via
:class:`~repro.core.stats.BinGrouping`; :mod:`repro.prediction.soak`
drives the serving path under deterministic overload on a
:class:`~repro.resilience.clock.ManualClock`.
"""

from repro.prediction.coalescer import CoalescerConfig, PredictionCoalescer
from repro.prediction.emodel import emodel_prior_from_arrays, emodel_prior_mos
from repro.prediction.evaluate import GroundTruthReport, evaluate_ground_truth
from repro.prediction.model import (
    ALL_FEATURES,
    ENGAGEMENT_FEATURES,
    NETWORK_FEATURES,
    ColumnarMosPredictor,
    PredictionReport,
    kfold_evaluate,
    train_test_evaluate,
)
from repro.prediction.service import (
    MosPredictionAnswer,
    PredictionCostModel,
    PredictionEngine,
)
from repro.prediction.soak import (
    PredictionSoakReport,
    run_prediction_soak,
    synthetic_prediction_server,
)

__all__ = [
    "ALL_FEATURES",
    "ENGAGEMENT_FEATURES",
    "NETWORK_FEATURES",
    "CoalescerConfig",
    "ColumnarMosPredictor",
    "GroundTruthReport",
    "MosPredictionAnswer",
    "PredictionCoalescer",
    "PredictionCostModel",
    "PredictionEngine",
    "PredictionReport",
    "PredictionSoakReport",
    "emodel_prior_from_arrays",
    "emodel_prior_mos",
    "evaluate_ground_truth",
    "kfold_evaluate",
    "run_prediction_soak",
    "synthetic_prediction_server",
    "train_test_evaluate",
]
