"""§6 "Traffic engineering & network planning opportunities".

The paper asks: *"could SpaceX change Starlink deployment plans (which
LEO satellite shell to deploy next) given the current deployment,
footprint, and user sentiment?"*  This module closes that loop: it takes
the capacity/perception world model and evaluates counterfactual launch
plans by the community satisfaction they would have produced.

* :func:`counterfactual_speeds` — re-run the capacity model under a
  modified launch schedule.
* :func:`plan_outcome` — score a plan by mean/min cohort satisfaction
  over a horizon.
* :class:`LaunchPlanner` — greedy allocator: given a budget of extra
  launches, place them in the months where they raise satisfaction most
  (which, thanks to the conditioning model, is *not* simply the months
  with the worst speeds — boosting speeds just before a demand shock
  buys less than cushioning the shock itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.timeline import Month, MonthlySeries
from repro.errors import AnalysisError, ConfigError
from repro.starlink.capacity import CapacityModel
from repro.starlink.launches import LaunchCatalog
from repro.starlink.perception import PerceptionModel


def modified_catalog(
    base: LaunchCatalog,
    extra_launches: Dict[Month, int],
    satellites_per_launch: int = 54,
) -> LaunchCatalog:
    """A copy of ``base`` with extra launches added in given months.

    Months keep their own satellites-per-launch figure when they already
    had launches; previously empty months use ``satellites_per_launch``.
    """
    monthly = dict(base.monthly)
    for month, extra in extra_launches.items():
        if extra < 0:
            raise ConfigError(f"negative extra launches for {month}")
        count, per_launch = monthly.get(month, (0, 0))
        if per_launch == 0:
            per_launch = satellites_per_launch
        monthly[month] = (count + extra, per_launch)
    return LaunchCatalog(monthly=monthly)


def counterfactual_speeds(
    capacity: CapacityModel,
    extra_launches: Dict[Month, int],
) -> MonthlySeries:
    """Median downlink under a modified launch plan (all else equal)."""
    from dataclasses import replace

    modified = replace(
        capacity, catalog=modified_catalog(capacity.catalog, extra_launches)
    )
    return modified.median_downlink_mbps()


@dataclass(frozen=True)
class PlanOutcome:
    """Scorecard for one launch plan."""

    extra_launches: Dict[Month, int]
    mean_satisfaction: float
    min_satisfaction: float
    final_speed_mbps: float


def plan_outcome(
    extra_launches: Dict[Month, int],
    capacity: Optional[CapacityModel] = None,
    perception: Optional[PerceptionModel] = None,
    horizon: Optional[Tuple[Month, Month]] = None,
) -> PlanOutcome:
    """Evaluate a plan by the cohort satisfaction it produces."""
    capacity = capacity or CapacityModel()
    perception = perception or PerceptionModel()
    speeds = counterfactual_speeds(capacity, extra_launches)
    subscribers = capacity.subscribers.monthly()
    satisfaction = perception.cohort_satisfaction(speeds, subscribers)
    if horizon is not None:
        satisfaction = satisfaction.slice(*horizon)
    values = satisfaction.values[~np.isnan(satisfaction.values)]
    if len(values) == 0:
        raise AnalysisError("no satisfaction values in the horizon")
    return PlanOutcome(
        extra_launches=dict(extra_launches),
        mean_satisfaction=float(values.mean()),
        min_satisfaction=float(values.min()),
        final_speed_mbps=float(speeds.values[-1]),
    )


@dataclass
class LaunchPlanner:
    """Greedy sentiment-aware launch allocation.

    Given a budget of extra launches and a set of candidate months, the
    planner repeatedly adds the single launch with the best marginal
    improvement of the objective (mean cohort satisfaction by default,
    optionally the worst month instead).

    Attributes:
        capacity: world model to plan against.
        perception: conditioning model scoring plans.
        objective: ``"mean"`` or ``"worst_month"``.
    """

    capacity: CapacityModel = field(default_factory=CapacityModel)
    perception: PerceptionModel = field(default_factory=PerceptionModel)
    objective: str = "mean"

    def __post_init__(self) -> None:
        if self.objective not in ("mean", "worst_month"):
            raise ConfigError(f"unknown objective {self.objective!r}")

    def _score(self, outcome: PlanOutcome) -> float:
        if self.objective == "mean":
            return outcome.mean_satisfaction
        return outcome.min_satisfaction

    def plan(
        self,
        budget: int,
        candidate_months: List[Month],
        horizon: Optional[Tuple[Month, Month]] = None,
    ) -> PlanOutcome:
        """Allocate ``budget`` extra launches greedily."""
        if budget < 0:
            raise ConfigError("budget must be >= 0")
        if not candidate_months:
            raise ConfigError("candidate_months must be non-empty")
        allocation: Dict[Month, int] = {}
        best = plan_outcome(
            allocation, self.capacity, self.perception, horizon
        )
        for _ in range(budget):
            best_step: Optional[Tuple[Month, PlanOutcome]] = None
            for month in candidate_months:
                trial = dict(allocation)
                trial[month] = trial.get(month, 0) + 1
                outcome = plan_outcome(
                    trial, self.capacity, self.perception, horizon
                )
                if best_step is None or self._score(outcome) > self._score(
                    best_step[1]
                ):
                    best_step = (month, outcome)
            assert best_step is not None
            allocation[best_step[0]] = allocation.get(best_step[0], 0) + 1
            best = best_step[1]
        return best
