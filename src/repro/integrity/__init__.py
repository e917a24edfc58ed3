"""Data integrity under adversarial contamination (``repro.integrity``).

The paper's user-centric pipelines aggregate what users *say* and
*rate*; both channels are open to anyone, including attackers.  This
package is the defense in four layers:

* :mod:`~repro.integrity.estimators` — robust aggregates (trimmed /
  winsorized mean, median-of-means) with a documented breakdown-point
  table, over the columnar blocks;
* :mod:`~repro.integrity.trust` — per-author / per-rater trust scores
  from duplicate-text fingerprinting, burst anomalies, template rings
  and rating-distribution tests, feeding aggregation weights;
* :mod:`~repro.integrity.online` — the streaming gate (burst /
  repetition quarantine) plus the boundary parser for malformed
  records, both checkpointable;
* :mod:`~repro.integrity.soak` — the deterministic ε-contamination
  sweep proving the trust-weighted aggregates hold where the naive
  mean breaks (``usaas integrity-soak``).

The adversaries themselves are injected by
:meth:`repro.resilience.faults.FaultPlan.data_faults` — seeded, pure
transforms, so clean and contaminated runs are byte-reproducible.
"""

from repro.integrity.estimators import (
    ESTIMATORS,
    EstimatorInfo,
    median_of_means,
    robust_mos,
    robust_polarity,
    trimmed_mean,
    winsorized_mean,
)
from repro.integrity.online import (
    BoundaryReport,
    OnlineTrustGate,
    parse_stream_dicts,
)
from repro.integrity.report import IntegritySection, build_section
from repro.integrity.soak import (
    EpsOutcome,
    IntegritySoakReport,
    run_integrity_soak,
)
from repro.integrity.trust import (
    TrustScore,
    contamination_estimate,
    post_weights,
    rated_weights,
    score_authors,
    score_raters,
    score_signal_units,
    text_fingerprint,
)

__all__ = [
    "ESTIMATORS",
    "BoundaryReport",
    "EpsOutcome",
    "EstimatorInfo",
    "IntegritySection",
    "IntegritySoakReport",
    "OnlineTrustGate",
    "TrustScore",
    "build_section",
    "contamination_estimate",
    "median_of_means",
    "parse_stream_dicts",
    "post_weights",
    "rated_weights",
    "robust_mos",
    "robust_polarity",
    "run_integrity_soak",
    "score_authors",
    "score_raters",
    "score_signal_units",
    "text_fingerprint",
    "trimmed_mean",
    "winsorized_mean",
]
