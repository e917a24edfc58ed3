"""The vectorized E-model prior: MOS with no training and no ratings.

When the ridge model cannot run — no rated sessions to train on, or a
deadline too tight for a full batch — the serving layer falls back to
the same G.107-flavoured QoE mapping the simulator itself uses
(:mod:`repro.netsim.qoe`), applied to each session's *aggregate*
network conditions.  It is a prior in the strict sense: purely
network-derived, blind to engagement, platform mitigation tuning and
per-interval dynamics, which is exactly why the trained model must
beat it on ground-truth MAE (a tier-1 test pins both errors).

Everything here is a pure elementwise array computation via
:func:`repro.netsim.vectorized.mitigate_arrays` /
:func:`~repro.netsim.vectorized.qoe_arrays` — no clock, no RNG.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.netsim.mitigation import MitigationStack
from repro.netsim.qoe import QoeModel
from repro.netsim.vectorized import mitigate_arrays, qoe_arrays
from repro.perf.columnar import ParticipantColumns

#: Burstiness assumed when scoring session aggregates.  Aggregate
#: columns do not carry burstiness, so the prior uses the default
#: :class:`~repro.netsim.link.LinkProfile` value — the same neutral
#: assumption the CLI's netsim commands default to.
DEFAULT_BURSTINESS = 0.3


def emodel_prior_from_arrays(
    latency_ms: np.ndarray,
    loss_pct: np.ndarray,
    jitter_ms: np.ndarray,
    bandwidth_mbps: np.ndarray,
    model: Optional[QoeModel] = None,
    stack: Optional[MitigationStack] = None,
    burstiness: float = DEFAULT_BURSTINESS,
) -> np.ndarray:
    """Overall MOS in [1, 5] for per-session aggregate conditions."""
    effective = mitigate_arrays(
        stack if stack is not None else MitigationStack(),
        np.asarray(latency_ms, dtype=float),
        np.asarray(loss_pct, dtype=float),
        np.asarray(jitter_ms, dtype=float),
        np.asarray(bandwidth_mbps, dtype=float),
        burstiness,
    )
    quality = qoe_arrays(model if model is not None else QoeModel(), effective)
    return np.clip(quality.overall_mos, 1.0, 5.0)


def emodel_prior_mos(
    cols: ParticipantColumns,
    rows: Optional[np.ndarray] = None,
    model: Optional[QoeModel] = None,
    stack: Optional[MitigationStack] = None,
    network_stat: str = "mean",
    burstiness: float = DEFAULT_BURSTINESS,
) -> np.ndarray:
    """The prior over ``rows`` of a columnar block (all rows when None)."""
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return np.array([])
    elif len(cols) == 0:
        return np.array([])

    def column(name: str) -> np.ndarray:
        col = cols.metric(name, network_stat)
        return col if rows is None else col[rows]

    return emodel_prior_from_arrays(
        column("latency_ms"),
        column("loss_pct"),
        column("jitter_ms"),
        column("bandwidth_mbps"),
        model=model,
        stack=stack,
        burstiness=burstiness,
    )
