"""Unit tests for PROSPECTOR LP−LF."""

import numpy as np
import pytest

from repro.network.builder import line_topology, star_topology, zoned_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.plans.execution import expected_hits
from repro.sampling.matrix import SampleMatrix
from tests.lp._algebraic_oracle import build_lp_no_lf_model

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.1)


def make_context(topology, samples_array, k, budget):
    return PlanningContext(
        topology=topology,
        energy=UNIFORM,
        samples=SampleMatrix(samples_array, k),
        k=k,
        budget=budget,
    )


class TestLPNoLF:
    def test_fetches_the_obvious_winners(self):
        topo = star_topology(5)
        samples = np.array([[0, 9, 8, 1, 1], [0, 9.5, 8.5, 1, 2]])
        context = make_context(topo, samples, k=2, budget=2.5)
        plan = LPNoLFPlanner().plan(context)
        assert plan.bandwidth(1) == 1 and plan.bandwidth(2) == 1
        assert plan.bandwidth(3) == 0 and plan.bandwidth(4) == 0

    def test_budget_respected(self):
        topo = star_topology(8)
        rng = np.random.default_rng(0)
        samples = rng.normal(10, 3, size=(12, 8))
        for budget in (1.5, 3.0, 6.0):
            context = make_context(topo, samples, k=4, budget=budget)
            plan = LPNoLFPlanner().plan(context)
            assert context.plan_cost(plan) <= budget + 1e-9

    def test_topology_awareness_beats_greedy(self):
        """Clustered top values: LP shares path costs, greedy's strict
        count order strands its budget on scattered picks."""
        topo = zoned_topology(num_zones=2, zone_size=4, relay_hops=3)
        rng = np.random.default_rng(1)
        n = topo.n
        # zone-1 members alternate top-2 ranks with zone-2 members,
        # but a budget for one zone only exists
        members = [list(range(4, 8)), list(range(11, 15))]
        samples = np.zeros((10, n))
        for j in range(10):
            samples[j, members[0][j % 4]] = 50 + rng.random()
            samples[j, members[1][(j + 1) % 4]] = 50 + rng.random()
        context = make_context(topo, samples, k=2, budget=8.0)
        lp_plan = LPNoLFPlanner().plan(context)
        greedy_plan = GreedyPlanner().plan(context)
        ones = context.samples.ones_list()
        assert expected_hits(lp_plan, ones) >= expected_hits(greedy_plan, ones)

    def test_fill_budget_uses_leftover(self):
        topo = star_topology(6)
        samples = np.tile([0, 6, 5, 4, 3, 2], (4, 1)).astype(float)
        context = make_context(topo, samples, k=5, budget=3.5)
        filled = LPNoLFPlanner(fill_budget=True).plan(context)
        bare = LPNoLFPlanner(fill_budget=False).plan(context)
        assert len(filled.used_edges) >= len(bare.used_edges)
        assert context.plan_cost(filled) <= 3.5

    def test_loose_budget_fetches_everything_useful(self):
        topo = line_topology(5)
        samples = np.array([[0, 1, 2, 3, 4.0]] * 3)
        context = make_context(topo, samples, k=5, budget=1000.0)
        plan = LPNoLFPlanner().plan(context)
        assert plan.visited_nodes == set(topo.nodes)

    def test_non_strict_mode_obeys_2x_guarantee(self):
        topo = star_topology(10)
        rng = np.random.default_rng(3)
        samples = rng.normal(10, 5, size=(8, 10))
        budget = 4.0
        context = make_context(topo, samples, k=5, budget=budget)
        plan = LPNoLFPlanner(strict_budget=False).plan(context)
        assert context.plan_cost(plan) <= 2 * budget + 1e-9

    def test_build_model_shape(self):
        topo = line_topology(4)
        samples = np.array([[0, 1, 2, 3.0]])
        context = make_context(topo, samples, k=2, budget=5.0)
        model, x, y = build_lp_no_lf_model(context)
        assert len(x) == 4 and len(y) == 3
        # path constraints: depth 1 + 2 + 3 = 6, plus one budget row
        assert model.num_constraints == 7
