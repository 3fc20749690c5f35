"""Differential test: array-native plan costing vs the scalar oracle.

The rounding helpers, Greedy and the proof fill loop score whole
candidate matrices with :func:`~repro.plans.execution.batch_static_cost`;
``_rounding_oracle`` keeps the original one-``QueryPlan``-per-trial
versions.  Over random trees, sample sets, budgets and cost models both
must return the same plans, and costs must agree bitwise (``==``, not
``approx``): a last-bit difference could flip a budget test or a
gain-per-mJ tie and change a plan.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.network.builder import star_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.planners.base import PlanningContext
from repro.planners.greedy import GreedyPlanner
from repro.planners.proof import ProofPlanner
from repro.planners.rounding import (
    fill_bandwidths,
    fill_chosen_nodes,
    repair_bandwidths,
    repair_chosen_nodes,
)
from repro.plans.execution import batch_static_cost, bandwidth_vector
from repro.plans.plan import QueryPlan
from repro.sampling.matrix import SampleMatrix
from tests.conftest import tree_strategy
from tests.planners import _rounding_oracle as oracle

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scenarios(draw):
    """A tree, a cost model, ``ones`` sets and a matching context."""
    topology = draw(tree_strategy(min_nodes=2, max_nodes=40))
    n = topology.n
    energy = draw(
        st.sampled_from(
            [EnergyModel.mica2(), EnergyModel.uniform(1.0, 0.1)]
        )
    )
    acquisition = draw(st.sampled_from([0.0, 0.05, 0.3]))
    energy = replace(energy, acquisition_mj=acquisition)
    failures = None
    if draw(st.booleans()):
        failures = LinkFailureModel.uniform(
            topology,
            draw(st.sampled_from([0.1, 0.25])),
            draw(st.sampled_from([0.5, 2.0])),
        )
    ones = draw(
        st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    samples = SampleMatrix(
        [[float(node in o) for node in range(n)] for o in ones],
        k=max(1, min(len(o) for o in ones)),
    )
    full_cost = oracle.plan_cost(QueryPlan.full(topology), energy, failures)
    budget = full_cost * draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8, 1.0]))
    context = PlanningContext(
        topology=topology,
        energy=energy,
        samples=samples,
        k=samples.k,
        budget=budget,
        failures=failures,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return context, ones, np.random.default_rng(seed)


def _scalar_cost(context):
    return lambda plan: oracle.plan_cost(plan, context.energy, context.failures)


def _random_bandwidths(context, rng, low):
    topology = context.topology
    return {
        edge: int(rng.integers(low, topology.subtree_size(edge) + 2))
        for edge in topology.edges
    }


def _assert_same_plan(new, old, context):
    assert new.bandwidths == old.bandwidths
    assert new.requires_all_edges == old.requires_all_edges
    assert context.plan_cost(new) == _scalar_cost(context)(old)


@SETTINGS
@given(scenarios())
def test_batch_static_cost_matches_message_sum(scenario):
    context, __, rng = scenario
    topology = context.topology
    plans = [
        QueryPlan(topology, _random_bandwidths(context, rng, low=0))
        for __ in range(6)
    ]
    matrix = np.stack([bandwidth_vector(p) for p in plans])
    batched = batch_static_cost(topology, matrix, context.energy, context.failures)
    costs = context.plan_costs(matrix)
    for plan, static, full in zip(plans, batched, costs):
        assert static == oracle.static_cost(plan, context.energy, context.failures)
        assert plan.static_cost(context.energy, context.failures) == static
        assert full == _scalar_cost(context)(plan)
        assert context.plan_cost(plan) == full


@SETTINGS
@given(scenarios(), st.sampled_from([0, 1]), st.booleans())
def test_repair_bandwidths_matches_oracle(
    scenario, min_bandwidth, requires_all_edges
):
    context, ones, rng = scenario
    plan = QueryPlan(
        context.topology,
        _random_bandwidths(context, rng, low=1 if requires_all_edges else 0),
        requires_all_edges=requires_all_edges,
    )
    try:
        old = oracle.repair_bandwidths(
            plan, ones, _scalar_cost(context), context.budget, min_bandwidth
        )
    except PlanError:
        # decrementing a proof-carrying plan to zero is rejected alike
        with pytest.raises(PlanError):
            repair_bandwidths(
                plan, ones, context.plan_costs, context.budget, min_bandwidth
            )
        return
    new = repair_bandwidths(
        plan, ones, context.plan_costs, context.budget, min_bandwidth
    )
    _assert_same_plan(new, old, context)


@SETTINGS
@given(scenarios(), st.booleans())
def test_fill_bandwidths_matches_oracle(scenario, requires_all_edges):
    context, ones, rng = scenario
    start = QueryPlan(
        context.topology,
        _random_bandwidths(context, rng, low=1 if requires_all_edges else 0),
        requires_all_edges=requires_all_edges,
    )
    # fill from a within-budget start, as the planners do after repair
    start = oracle.repair_bandwidths(
        start,
        ones,
        _scalar_cost(context),
        context.budget,
        min_bandwidth=1 if requires_all_edges else 0,
    )
    old = oracle.fill_bandwidths(start, ones, _scalar_cost(context), context.budget)
    new = fill_bandwidths(start, ones, context.plan_costs, context.budget)
    _assert_same_plan(new, old, context)


@SETTINGS
@given(scenarios())
def test_chosen_node_helpers_match_oracle(scenario):
    context, ones, rng = scenario
    topology = context.topology
    chosen = sorted(
        {topology.root}
        | {int(u) for u in rng.choice(topology.n, size=rng.integers(0, topology.n))}
    )
    scores = context.samples.column_counts()
    protected = frozenset({topology.root})

    def build(keep):
        return QueryPlan.from_chosen_nodes(topology, keep)

    old_plan, old_kept = oracle.repair_chosen_nodes(
        chosen, scores, build, _scalar_cost(context), context.budget, protected
    )
    new_plan, new_kept = repair_chosen_nodes(
        chosen, scores, topology, context.plan_costs, context.budget, protected
    )
    assert new_kept == old_kept
    _assert_same_plan(new_plan, old_plan, context)

    priorities = [
        float(scores[u]) + 0.5 * float(rng.random()) if scores[u] > 0 else 0.0
        for u in topology.nodes
    ]
    old_chosen, new_chosen = set(old_kept), set(new_kept)
    old = oracle.fill_chosen_nodes(
        old_chosen, priorities, build, _scalar_cost(context), context.budget
    )
    new = fill_chosen_nodes(
        new_chosen, priorities, topology, context.plan_costs, context.budget
    )
    assert new_chosen == old_chosen
    _assert_same_plan(new, old, context)


@SETTINGS
@given(scenarios(), st.booleans())
def test_greedy_matches_oracle(scenario, skip_unaffordable):
    context, __, __ = scenario
    old = oracle.greedy_plan(context, skip_unaffordable)
    new = GreedyPlanner(skip_unaffordable=skip_unaffordable).plan(context)
    _assert_same_plan(new, old, context)


@SETTINGS
@given(scenarios())
def test_proof_fill_matches_oracle(scenario):
    context, __, rng = scenario
    plan = QueryPlan(
        context.topology,
        {edge: 1 for edge in context.topology.edges},
        requires_all_edges=True,
    )
    budget = context.plan_cost(plan) + context.budget
    old = oracle.proof_fill(plan, context, budget)
    new = ProofPlanner()._fill(plan, context, budget)
    _assert_same_plan(new, old, context)


@pytest.mark.parametrize("budget", [1.1, 2.2, 2.5])
def test_fill_ties_resolve_like_oracle(budget):
    """Equal-gain, equal-cost moves on a star: the earliest move wins."""
    topology = star_topology(5)
    ones = [frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})]
    context = PlanningContext(
        topology=topology,
        energy=EnergyModel.uniform(1.0, 0.1),
        samples=SampleMatrix(np.eye(5)[1:], k=1),
        k=1,
        budget=budget,
    )
    start = QueryPlan(topology, {})
    old = oracle.fill_bandwidths(start, ones, _scalar_cost(context), budget)
    new = fill_bandwidths(start, ones, context.plan_costs, budget)
    _assert_same_plan(new, old, context)
    assert new.bandwidth(1) == 1 and new.bandwidth(4) == 0
