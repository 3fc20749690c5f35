"""Unit tests for the planning context and planner construction."""

import warnings

import numpy as np
import pytest

from repro.errors import BudgetError, SamplingError
from repro.network.builder import star_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.planners.base import PlannerConfig, PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from repro.plans.plan import QueryPlan
from repro.sampling.matrix import SampleMatrix

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.25)


@pytest.fixture
def topology():
    return star_topology(5)


@pytest.fixture
def samples():
    return SampleMatrix(np.random.default_rng(0).normal(size=(4, 5)), 2)


class TestValidation:
    def test_node_count_mismatch(self, topology):
        wrong = SampleMatrix(np.zeros((2, 3)), 1)
        with pytest.raises(SamplingError, match="covers"):
            PlanningContext(topology, UNIFORM, wrong, 1, 10.0)

    def test_bad_k(self, topology, samples):
        with pytest.raises(BudgetError):
            PlanningContext(topology, UNIFORM, samples, 0, 10.0)

    def test_negative_budget(self, topology, samples):
        with pytest.raises(BudgetError):
            PlanningContext(topology, UNIFORM, samples, 2, -1.0)


class TestCosts:
    def test_edge_cost_without_failures(self, topology, samples):
        context = PlanningContext(topology, UNIFORM, samples, 2, 10.0)
        assert context.edge_cost(1) == pytest.approx(1.0)
        assert context.per_value == pytest.approx(0.25)

    def test_edge_cost_inflated_by_failures(self, topology, samples):
        failures = LinkFailureModel(
            failure_probability={1: 0.5}, reroute_extra_mj={1: 4.0}
        )
        context = PlanningContext(
            topology, UNIFORM, samples, 2, 10.0, failures=failures
        )
        assert context.edge_cost(1) == pytest.approx(3.0)
        assert context.edge_cost(2) == pytest.approx(1.0)

    def test_plan_cost_matches_static_plus_failures(self, topology, samples):
        failures = LinkFailureModel(
            failure_probability={1: 1.0}, reroute_extra_mj={1: 2.0}
        )
        context = PlanningContext(
            topology, UNIFORM, samples, 2, 10.0, failures=failures
        )
        plan = QueryPlan(topology, {1: 1, 2: 1})
        base = QueryPlan(topology, {1: 1, 2: 1}).static_cost(UNIFORM)
        assert context.plan_cost(plan) == pytest.approx(base + 2.0)


def _silent(build):
    """Run ``build`` asserting it warns nothing; returns the result."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        built = build()
    assert caught == []
    return built


class TestPlannerConfig:
    """The LP planners take ``(*, config=None, **overrides)``."""

    @pytest.mark.parametrize(
        "planner_cls", [LPLFPlanner, LPNoLFPlanner, ProofPlanner]
    )
    def test_planner_keywords_are_silent(self, planner_cls):
        planner = _silent(lambda: planner_cls(strict_budget=False))
        assert planner.strict_budget is False

    def test_planner_config_object_is_silent(self):
        config = PlannerConfig(fill_budget=False, strict_budget=False)
        planner = _silent(lambda: LPLFPlanner(config=config))
        assert planner.fill_budget is False
        assert planner.strict_budget is False

    def test_planner_keyword_overrides_beat_config(self):
        config = PlannerConfig(fill_budget=False)
        planner = LPLFPlanner(config=config, fill_budget=True)
        assert planner.fill_budget is True

    def test_planner_rejects_unknown_keywords(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            LPLFPlanner(frobnicate=True)

    @pytest.mark.parametrize(
        "planner_cls", [LPLFPlanner, LPNoLFPlanner, ProofPlanner]
    )
    def test_planner_rejects_positional_arguments(self, planner_cls):
        with pytest.raises(TypeError):
            planner_cls(False)
