"""Tests for sentiment-aware launch planning (§6)."""

import pytest

from repro.errors import ConfigError
from repro.starlink.capacity import CapacityModel
from repro.starlink.launches import LAUNCH_CATALOG
from repro.starlink.planning import (
    LaunchPlanner,
    counterfactual_speeds,
    modified_catalog,
    plan_outcome,
)


class TestModifiedCatalog:
    def test_adds_launches(self):
        modified = modified_catalog(LAUNCH_CATALOG, {(2021, 7): 2})
        assert modified.launches_in((2021, 7)) == 2
        assert modified.satellites_in((2021, 7)) == 2 * 54

    def test_keeps_existing_per_launch(self):
        modified = modified_catalog(LAUNCH_CATALOG, {(2021, 3): 1})
        # March '21 had 60-satellite launches; the extra one matches.
        assert modified.satellites_in((2021, 3)) == 5 * 60

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            modified_catalog(LAUNCH_CATALOG, {(2021, 7): -1})

    def test_base_untouched(self):
        before = LAUNCH_CATALOG.launches_in((2021, 7))
        modified_catalog(LAUNCH_CATALOG, {(2021, 7): 3})
        assert LAUNCH_CATALOG.launches_in((2021, 7)) == before


class TestCounterfactualSpeeds:
    def test_extra_launches_never_hurt(self):
        base = CapacityModel().median_downlink_mbps()
        boosted = counterfactual_speeds(CapacityModel(), {(2021, 7): 3})
        assert (boosted.values >= base.values - 1e-9).all()

    def test_launch_gap_fill_raises_autumn_speeds(self):
        base = CapacityModel().median_downlink_mbps()
        boosted = counterfactual_speeds(CapacityModel(), {(2021, 7): 3})
        assert boosted[(2021, 9)] > base[(2021, 9)]

    def test_empty_plan_is_identity(self):
        base = CapacityModel().median_downlink_mbps()
        same = counterfactual_speeds(CapacityModel(), {})
        assert (same.values == base.values).all()


class TestPlanOutcome:
    def test_baseline_outcome(self):
        outcome = plan_outcome({})
        assert 0 < outcome.mean_satisfaction < 1
        assert outcome.min_satisfaction <= outcome.mean_satisfaction
        assert sum(outcome.extra_launches.values()) == 0

    def test_more_launches_help_satisfaction(self):
        base = plan_outcome({})
        boosted = plan_outcome({(2022, 1): 4, (2021, 7): 2})
        assert boosted.mean_satisfaction >= base.mean_satisfaction

    def test_horizon_restriction(self):
        full = plan_outcome({})
        only_2022 = plan_outcome({}, horizon=((2022, 1), (2022, 12)))
        assert only_2022.mean_satisfaction != pytest.approx(
            full.mean_satisfaction, abs=1e-6
        )


class TestLaunchPlanner:
    def test_planner_beats_no_plan(self):
        planner = LaunchPlanner()
        candidates = [(2021, 7), (2021, 12), (2022, 2)]
        planned = planner.plan(2, candidates)
        baseline = plan_outcome({})
        assert planned.mean_satisfaction >= baseline.mean_satisfaction
        assert sum(planned.extra_launches.values()) == 2

    def test_bigger_budget_never_worse(self):
        planner = LaunchPlanner()
        candidates = [(2021, 7), (2022, 2)]
        small = planner.plan(1, candidates)
        large = planner.plan(3, candidates)
        assert large.mean_satisfaction >= small.mean_satisfaction - 1e-9

    def test_worst_month_objective(self):
        planner = LaunchPlanner(objective="worst_month")
        planned = planner.plan(1, [(2021, 7), (2022, 2)])
        baseline = plan_outcome({})
        assert planned.min_satisfaction >= baseline.min_satisfaction - 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            LaunchPlanner(objective="vibes")
        with pytest.raises(ConfigError):
            LaunchPlanner().plan(-1, [(2021, 7)])
        with pytest.raises(ConfigError):
            LaunchPlanner().plan(1, [])
