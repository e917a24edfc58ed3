"""The §3 analysis pipeline: user actions as implicit network measurement.

Given a :class:`~repro.telemetry.store.CallDataset` (real or synthetic —
the pipeline only sees the record schema), this package reproduces every
analysis in the paper's §3:

* :mod:`repro.engagement.cohort` — the confounder controls (§3.1's call
  dataset definition and the hold-other-metrics-constant windows).
* :mod:`repro.engagement.curves` — engagement vs each network metric
  (Fig. 1).
* :mod:`repro.engagement.compound` — the latency×loss Presence grid
  (Fig. 2).
* :mod:`repro.engagement.mos_link` — engagement↔MOS correlation (Fig. 4).

MOS prediction from engagement + network conditions (the §5 model
"omitted for brevity") lives in :mod:`repro.prediction`.
"""

from repro.engagement.adjustment import (
    AdjustedCurve,
    adjusted_curve,
    composition_bias_demo,
)
from repro.engagement.binning import curve_matrix, engagement_curve
from repro.engagement.early_warning import (
    DetectionOutcome,
    DriftDetector,
    detection_latency_experiment,
    run_detector,
)
from repro.engagement.cohort import CohortFilter, ConditionWindow, control_windows_except
from repro.engagement.compound import CompoundGrid, compound_presence_grid
from repro.engagement.curves import DEFAULT_EDGES, Fig1Result, fig1_curves
from repro.engagement.mos_link import MosCorrelation, mos_by_engagement

__all__ = [
    "AdjustedCurve",
    "CohortFilter",
    "DetectionOutcome",
    "DriftDetector",
    "adjusted_curve",
    "composition_bias_demo",
    "detection_latency_experiment",
    "run_detector",
    "CompoundGrid",
    "ConditionWindow",
    "DEFAULT_EDGES",
    "Fig1Result",
    "MosCorrelation",
    "compound_presence_grid",
    "control_windows_except",
    "curve_matrix",
    "engagement_curve",
    "fig1_curves",
    "mos_by_engagement",
]
