"""Unit tests for the experiment-harness plumbing."""

import numpy as np
import pytest

from repro.datagen.gaussian import GaussianField
from repro.datagen.trace import Trace
from repro.errors import PlanError
from repro.experiments.common import Evaluation, evaluate_plan, evaluate_planner
from repro.network.builder import star_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.planners.greedy import GreedyPlanner
from repro.plans.plan import QueryPlan
from tests.experiments import _scalar_oracle as oracle

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.2)


@pytest.fixture
def setting():
    topology = star_topology(6)
    means = np.array([0.0, 50, 40, 1, 1, 1])
    field = GaussianField(means, np.full(6, 0.5))
    rng = np.random.default_rng(3)
    return topology, field.trace(8, rng), field.trace(5, rng)


class TestEvaluatePlan:
    def test_perfect_plan(self, setting):
        topology, __, eval_trace = setting
        evaluation = evaluate_plan(
            "full", QueryPlan.full(topology), topology, UNIFORM,
            eval_trace, k=2,
        )
        assert evaluation.mean_accuracy == 1.0
        assert evaluation.mean_energy_mj > 0
        assert evaluation.algorithm == "full"
        assert evaluation.static_cost_mj == pytest.approx(
            QueryPlan.full(topology).static_cost(UNIFORM)
        )

    def test_partial_plan(self, setting):
        topology, __, eval_trace = setting
        plan = QueryPlan.from_chosen_nodes(topology, {1})  # misses node 2
        evaluation = evaluate_plan(
            "half", plan, topology, UNIFORM, eval_trace, k=2
        )
        assert evaluation.mean_accuracy == pytest.approx(0.5)

    def test_row_serialization(self, setting):
        topology, __, eval_trace = setting
        evaluation = evaluate_plan(
            "x", QueryPlan.full(topology), topology, UNIFORM, eval_trace, 2
        )
        row = evaluation.row(budget_mj=3.0)
        assert row["algorithm"] == "x"
        assert row["budget_mj"] == 3.0
        assert set(row) >= {"accuracy", "energy_mj"}


class TestEngines:
    def test_batch_matches_scalar(self, setting):
        topology, __, eval_trace = setting
        plan = QueryPlan.from_chosen_nodes(topology, {1, 2})
        batch = evaluate_plan("p", plan, topology, UNIFORM, eval_trace, k=2)
        scalar = oracle.evaluate_plan(
            "p", plan, topology, UNIFORM, eval_trace, k=2
        )
        assert batch.mean_accuracy == scalar.mean_accuracy
        assert batch.mean_energy_mj == pytest.approx(
            scalar.mean_energy_mj, rel=1e-9
        )

    def test_engines_agree_under_shared_seed_with_failures(self, setting):
        topology, __, eval_trace = setting
        plan = QueryPlan.full(topology)
        failures = LinkFailureModel.uniform(
            topology, probability=0.3, reroute_extra_mj=1.0
        )
        batch = evaluate_plan(
            "p", plan, topology, UNIFORM, eval_trace, k=2,
            failures=failures, seed=12,
        )
        scalar = oracle.evaluate_plan(
            "p", plan, topology, UNIFORM, eval_trace, k=2,
            failures=failures, seed=12,
        )
        assert batch.mean_energy_mj == pytest.approx(
            scalar.mean_energy_mj, rel=1e-9
        )
        # the failures bite: retries cost more than the failure-free run
        assert batch.mean_energy_mj > evaluate_plan(
            "p", plan, topology, UNIFORM, eval_trace, k=2
        ).mean_energy_mj

    def test_seed_makes_failure_runs_reproducible(self, setting):
        topology, __, eval_trace = setting
        plan = QueryPlan.full(topology)
        failures = LinkFailureModel.uniform(
            topology, probability=0.5, reroute_extra_mj=3.0
        )
        energies = {
            evaluate_plan(
                "p", plan, topology, UNIFORM, eval_trace, k=2,
                failures=failures, seed=99,
            ).mean_energy_mj
            for __ in range(2)
        }
        assert len(energies) == 1

    def test_explicit_rng_is_honoured(self, setting):
        topology, __, eval_trace = setting
        plan = QueryPlan.full(topology)
        failures = LinkFailureModel.uniform(
            topology, probability=0.5, reroute_extra_mj=3.0
        )
        by_seed = evaluate_plan(
            "p", plan, topology, UNIFORM, eval_trace, k=2,
            failures=failures, seed=42,
        )
        by_rng = evaluate_plan(
            "p", plan, topology, UNIFORM, eval_trace, k=2,
            failures=failures, rng=np.random.default_rng(42),
        )
        assert by_rng.mean_energy_mj == by_seed.mean_energy_mj

    def test_rejects_rng_and_seed_together(self, setting):
        topology, __, eval_trace = setting
        with pytest.raises(PlanError, match="not both"):
            evaluate_plan(
                "p", QueryPlan.full(topology), topology, UNIFORM,
                eval_trace, k=2, rng=np.random.default_rng(0), seed=1,
            )


class TestEvaluatePlanner:
    def test_plans_from_training_trace(self, setting):
        topology, train, eval_trace = setting
        evaluation = evaluate_planner(
            GreedyPlanner(), topology, UNIFORM, train, eval_trace,
            k=2, budget=3.0,
        )
        assert isinstance(evaluation, Evaluation)
        assert evaluation.algorithm == "greedy"
        assert evaluation.mean_accuracy == 1.0  # the two hot nodes are cheap
        assert evaluation.plan is not None
        assert evaluation.static_cost_mj <= 3.0
