"""Insight objects: what USaaS hands back to stakeholders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import AnalysisError


@dataclass(frozen=True)
class Insight:
    """One aggregated, privacy-safe finding.

    Attributes:
        kind: machine-readable category (``correlation``, ``level``,
            ``anomaly``).
        statement: human-readable finding.
        confidence: 0–1 confidence, driven by sample size and effect
            strength.
        evidence: numeric backing (correlation values, counts, means).
    """

    kind: str
    statement: str
    confidence: float
    evidence: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("correlation", "level", "anomaly"):
            raise AnalysisError(f"unknown insight kind {self.kind!r}")
        if not 0 <= self.confidence <= 1:
            raise AnalysisError("confidence must be in [0, 1]")
        if not self.statement:
            raise AnalysisError("insight needs a statement")

    def evidence_dict(self) -> Dict[str, float]:
        return dict(self.evidence)


#: The sample size at which :func:`confidence_from`'s size term is half way.
CONFIDENCE_N_REF = 200


def confidence_from(n_samples: int, effect: float) -> float:
    """A simple, monotone confidence heuristic.

    Grows with sample size (saturating around :data:`CONFIDENCE_N_REF`)
    and with effect magnitude; bounded away from certainty because
    USaaS is observational.
    """
    if n_samples < 0:
        raise AnalysisError("n_samples must be >= 0")
    size_term = n_samples / (n_samples + CONFIDENCE_N_REF)
    effect_term = min(1.0, abs(effect))
    return round(min(0.95, 0.2 + 0.5 * size_term + 0.3 * effect_term), 3)
