"""§6 online resource tuning: act on what the user signals say.

The paper: *"If call latency, for example, is the discerning factor
affecting user experience on MS Teams, could network resource allocation
be tuned online to cater to the demand?"*

The conferencing client owns one genuinely two-sided knob: the **jitter
buffer**.  Deepening it absorbs delay variation (protecting video, the
Cam On driver) but adds mouth-to-ear delay (hurting interactivity, the
Mic On driver).  The right depth therefore depends on the *path*: a jittery
low-latency cable line wants a deep buffer, a clean high-latency
satellite path wants a shallow one.  USaaS-style engagement feedback is
exactly what reveals which side of the trade a cohort sits on.

:class:`MitigationTuner` sweeps buffer depths (and optionally FEC budget)
against the QoE model for a given path profile and recommends per-cohort
settings; :func:`tuning_gain` quantifies the improvement over the
one-size-fits-all default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.netsim.link import LinkProfile
from repro.netsim.mitigation import MitigationStack
from repro.netsim.qoe import QoeModel
from repro.netsim.trace import generate_condition_arrays
from repro.netsim.vectorized import mitigate_arrays, qoe_arrays
from repro.rng import derive


@dataclass(frozen=True)
class TuningResult:
    """Recommended settings for one path profile.

    Attributes:
        stack: the recommended mitigation stack.
        score: mean objective under the recommendation.
        default_score: mean objective under the default stack.
        objective: which quality dimension was optimised.
    """

    stack: MitigationStack
    score: float
    default_score: float
    objective: str

    @property
    def gain(self) -> float:
        return self.score - self.default_score


class MitigationTuner:
    """Sweep-based per-cohort mitigation tuning.

    Attributes:
        buffer_depths_ms: candidate jitter-buffer depths.
        fec_budgets_pct: candidate FEC budgets (None keeps the default).
        objective: ``"overall"`` (blended MOS), ``"interactivity"`` or
            ``"video"``.
        n_intervals: simulated five-second intervals per evaluation.
    """

    def __init__(
        self,
        buffer_depths_ms: Sequence[float] = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        fec_budgets_pct: Optional[Sequence[float]] = None,
        objective: str = "overall",
        n_intervals: int = 360,
        qoe: Optional[QoeModel] = None,
        seed: int = 0,
    ) -> None:
        if not buffer_depths_ms:
            raise ConfigError("need at least one candidate buffer depth")
        if any(d < 0 for d in buffer_depths_ms):
            raise ConfigError("buffer depths must be >= 0")
        if objective not in ("overall", "interactivity", "video"):
            raise ConfigError(f"unknown objective {objective!r}")
        if n_intervals < 10:
            raise ConfigError("n_intervals must be >= 10")
        self._depths = tuple(buffer_depths_ms)
        self._budgets = tuple(fec_budgets_pct) if fec_budgets_pct else None
        self._objective = objective
        self._n_intervals = n_intervals
        self._qoe = qoe or QoeModel()
        self._seed = seed

    def _score_stack(self, profile: LinkProfile, stack: MitigationStack) -> float:
        rng = derive(self._seed, "tuning", repr(profile))
        conditions = generate_condition_arrays(profile, rng, self._n_intervals)
        eff = mitigate_arrays(
            stack,
            conditions["latency_ms"], conditions["loss_pct"],
            conditions["jitter_ms"], conditions["bandwidth_mbps"],
            profile.burstiness,
        )
        quality = qoe_arrays(self._qoe, eff)
        if self._objective == "overall":
            return float(quality.overall_mos.mean())
        if self._objective == "interactivity":
            return float(quality.interactivity.mean())
        return float(quality.video_mos.mean())

    def candidates(self, base: MitigationStack) -> List[MitigationStack]:
        stacks = []
        budgets = self._budgets or (base.fec_budget_pct,)
        for depth in self._depths:
            for budget in budgets:
                stacks.append(replace(
                    base, jitter_buffer_ms=depth, fec_budget_pct=budget
                ))
        return stacks

    def tune(
        self,
        profile: LinkProfile,
        base: MitigationStack = MitigationStack(),
    ) -> TuningResult:
        """Find the best candidate stack for a path profile."""
        default_score = self._score_stack(profile, base)
        best_stack, best_score = base, default_score
        for stack in self.candidates(base):
            score = self._score_stack(profile, stack)
            if score > best_score:
                best_stack, best_score = stack, score
        return TuningResult(
            stack=best_stack,
            score=best_score,
            default_score=default_score,
            objective=self._objective,
        )


def tuning_gain(
    profiles: Dict[str, LinkProfile],
    tuner: Optional[MitigationTuner] = None,
) -> Dict[str, TuningResult]:
    """Tune every cohort and report per-cohort recommendations."""
    if not profiles:
        raise ConfigError("profiles must be non-empty")
    tuner = tuner or MitigationTuner()
    return {name: tuner.tune(profile) for name, profile in profiles.items()}
