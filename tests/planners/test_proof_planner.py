"""Unit tests for PROSPECTOR-Proof."""

import numpy as np
import pytest

from repro.errors import BudgetError
from repro.network.builder import line_topology, star_topology, random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.proof import ProofPlanner
from repro.plans.proof_execution import execute_proof_plan
from repro.sampling.matrix import SampleMatrix
from tests.lp._algebraic_oracle import build_proof_model

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.3)


def make_context(topology, samples_array, k, budget):
    return PlanningContext(
        topology=topology,
        energy=UNIFORM,
        samples=SampleMatrix(samples_array, k),
        k=k,
        budget=budget,
    )


class TestProofPlanner:
    def test_minimum_cost_matches_all_ones_plan(self):
        topo = star_topology(5)
        samples = np.zeros((2, 5))
        context = make_context(topo, samples, k=1, budget=100.0)
        planner = ProofPlanner()
        minimum = planner.minimum_cost(context)
        # star: 4 edges, all leaves, so no proven-count reserve
        assert minimum == pytest.approx(4 * (1.0 + 0.3))

    def test_budget_below_minimum_raises(self):
        topo = star_topology(5)
        samples = np.zeros((2, 5))
        context = make_context(topo, samples, k=1, budget=1.0)
        with pytest.raises(BudgetError, match="minimum"):
            ProofPlanner().plan(context)

    def test_plan_uses_every_edge(self):
        topo = random_topology(20, rng=np.random.default_rng(0), radio_range=40.0)
        rng = np.random.default_rng(1)
        samples = rng.normal(10, 3, size=(6, 20))
        context = make_context(topo, samples, k=3, budget=60.0)
        plan = ProofPlanner().plan(context)
        assert all(plan.bandwidth(e) >= 1 for e in topo.edges)
        assert plan.requires_all_edges

    def test_budget_respected(self):
        topo = random_topology(15, rng=np.random.default_rng(2), radio_range=45.0)
        rng = np.random.default_rng(3)
        samples = rng.normal(10, 3, size=(5, 15))
        planner = ProofPlanner()
        probe = make_context(topo, samples, k=3, budget=float("inf"))
        minimum = planner.minimum_cost(probe)
        for factor in (1.05, 1.3, 2.0):
            context = make_context(topo, samples, k=3, budget=minimum * factor)
            plan = planner.plan(context)
            assert context.plan_cost(plan) <= context.budget + 1e-9

    def test_generous_budget_proves_expected_topk(self):
        """With predictable samples and ample budget, executing the
        proof plan on a fresh draw proves at least k values."""
        topo = line_topology(6)
        base = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        rng = np.random.default_rng(4)
        samples = base + rng.normal(0, 0.1, size=(8, 6))
        planner = ProofPlanner()
        probe = make_context(topo, samples, k=2, budget=float("inf"))
        context = make_context(
            topo, samples, k=2, budget=planner.minimum_cost(probe) * 2
        )
        plan = planner.plan(context)
        fresh = base + rng.normal(0, 0.1, size=6)
        result = execute_proof_plan(plan, fresh)
        assert result.proven_count >= 2

    def test_fill_budget_spends_allocation(self):
        topo = random_topology(12, rng=np.random.default_rng(5), radio_range=50.0)
        rng = np.random.default_rng(6)
        samples = rng.normal(10, 3, size=(5, 12))
        planner = ProofPlanner(fill_budget=True)
        probe = make_context(topo, samples, k=2, budget=float("inf"))
        minimum = planner.minimum_cost(probe)
        context = make_context(topo, samples, k=2, budget=minimum * 1.4)
        filled = planner.plan(context)
        bare = ProofPlanner().plan(context)
        assert sum(filled.bandwidths.values()) >= sum(bare.bandwidths.values())
        assert context.plan_cost(filled) <= context.budget

    def test_objective_upper_bounds_samples(self):
        """The LP optimum can never exceed m * k."""
        topo = line_topology(5)
        rng = np.random.default_rng(7)
        samples = rng.normal(0, 1, size=(4, 5))
        context = make_context(topo, samples, k=2, budget=100.0)
        model, __, __ = build_proof_model(context)
        solution = model.solve()
        assert solution.objective <= 4 * 2 + 1e-6
