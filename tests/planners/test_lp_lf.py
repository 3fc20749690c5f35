"""Unit and property tests for PROSPECTOR LP+LF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.builder import line_topology, star_topology, zoned_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.plans.execution import count_topk_hits, expected_hits
from repro.sampling.matrix import SampleMatrix
from tests.conftest import tree_strategy
from tests.lp._algebraic_oracle import build_lp_lf_model

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.3)


def make_context(topology, samples_array, k, budget):
    return PlanningContext(
        topology=topology,
        energy=UNIFORM,
        samples=SampleMatrix(samples_array, k),
        k=k,
        budget=budget,
    )


class TestLPLF:
    def test_budget_respected(self):
        topo = zoned_topology(2, 4, relay_hops=2)
        rng = np.random.default_rng(0)
        samples = rng.normal(10, 3, size=(10, topo.n))
        for budget in (4.0, 8.0, 16.0):
            context = make_context(topo, samples, k=3, budget=budget)
            plan = LPLFPlanner().plan(context)
            assert context.plan_cost(plan) <= budget + 1e-9

    def test_local_filtering_narrows_chain_bandwidth(self):
        """A zone where any 1 of 4 nodes can hold the top value: the
        LF plan visits all 4 but carries few values up the relay."""
        topo = zoned_topology(1, 4, relay_hops=3)
        members = list(range(4, 8))
        samples = np.zeros((8, topo.n))
        for j in range(8):
            samples[j, members[j % 4]] = 50.0
        context = make_context(topo, samples, k=1, budget=10.0)
        plan = LPLFPlanner().plan(context)
        # all members visited ...
        for member in members:
            assert plan.bandwidth(member) >= 1
        # ... but the relay chain carries fewer than the 4 values seen
        assert plan.bandwidth(1) < 4
        assert expected_hits(plan, context.samples.ones_list()) == pytest.approx(1.0)

    def test_beats_no_lf_under_negative_correlation(self):
        """The Figure 5 mechanism in miniature."""
        from repro.network.builder import zone_members

        topo = zoned_topology(2, 4, relay_hops=3)
        zones = zone_members(2, 4, relay_hops=3)
        rng = np.random.default_rng(2)
        samples = np.zeros((12, topo.n))
        for j in range(12):
            # exactly one winner per zone, rotating
            samples[j, zones[0][j % 4]] = 50 + rng.random()
            samples[j, zones[1][(j + 2) % 4]] = 50 + rng.random()
        budget = 16.0
        context = make_context(topo, samples, k=2, budget=budget)
        lf = LPLFPlanner().plan(context)
        no_lf = LPNoLFPlanner().plan(context)
        ones = context.samples.ones_list()
        assert expected_hits(lf, ones) >= expected_hits(no_lf, ones)

    def test_lp_objective_matches_execution_on_integral_solution(self):
        """When the LP happens to return integral bandwidths, its
        objective equals the total executed hit count over samples."""
        topo = star_topology(5)
        samples = np.array([[0, 9, 8, 1, 1], [0, 1, 8, 9, 1.0]])
        context = make_context(topo, samples, k=2, budget=100.0)
        model, b, __, __ = build_lp_lf_model(context)
        solution = model.solve()
        bandwidths = {e: solution.value(b[e]) for e in topo.edges}
        assert all(abs(v - round(v)) < 1e-6 for v in bandwidths.values())
        from repro.plans.plan import QueryPlan

        plan = QueryPlan(topo, {e: int(round(v)) for e, v in bandwidths.items()})
        total = sum(
            count_topk_hits(plan, context.samples.ones(j))
            for j in range(context.samples.num_samples)
        )
        assert solution.objective == pytest.approx(total)

    def test_fill_budget_improves_or_matches(self):
        topo = zoned_topology(2, 3, relay_hops=2)
        rng = np.random.default_rng(5)
        samples = rng.normal(20, 6, size=(10, topo.n))
        context = make_context(topo, samples, k=3, budget=10.0)
        ones = context.samples.ones_list()
        filled = LPLFPlanner(fill_budget=True).plan(context)
        bare = LPLFPlanner(fill_budget=False).plan(context)
        assert expected_hits(filled, ones) >= expected_hits(bare, ones)
        assert context.plan_cost(filled) <= 10.0

    def test_zero_budget(self):
        topo = line_topology(3)
        samples = np.array([[0, 1, 2.0]])
        context = make_context(topo, samples, k=1, budget=0.0)
        plan = LPLFPlanner().plan(context)
        assert context.plan_cost(plan) == 0.0


@settings(max_examples=25, deadline=None)
@given(tree_strategy(min_nodes=3, max_nodes=8),
       st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.0, max_value=20.0))
def test_budget_never_exceeded_property(topology, k, budget):
    rng = np.random.default_rng(17)
    samples = rng.normal(10, 4, size=(5, topology.n))
    context = make_context(topology, samples, k=k, budget=budget)
    plan = LPLFPlanner().plan(context)
    assert context.plan_cost(plan) <= budget + 1e-9
