"""Unit tests for LP rounding, repair, and budget-fill utilities."""

import pytest

from repro.network.builder import line_topology, star_topology
from repro.network.energy import EnergyModel
from repro.planners.rounding import (
    fill_bandwidths,
    fill_chosen_nodes,
    repair_bandwidths,
    repair_chosen_nodes,
    round_bandwidth,
    round_indicator,
)
from repro.plans.execution import batch_static_cost, count_topk_hits
from repro.plans.plan import QueryPlan

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.1)


def cost(plan):
    return plan.static_cost(UNIFORM)


def costs(topology):
    """Batched ``costs_of`` for the helpers: bandwidth rows to costs."""
    return lambda bandwidths: batch_static_cost(topology, bandwidths, UNIFORM)


class TestRoundingPrimitives:
    def test_round_indicator_half_threshold(self):
        assert round_indicator(0.5) == 1
        assert round_indicator(0.49) == 0
        assert round_indicator(1.0) == 1
        assert round_indicator(0.7, threshold=0.8) == 0

    def test_round_bandwidth_half_up(self):
        assert round_bandwidth(0.4) == 0
        assert round_bandwidth(0.5) == 1
        assert round_bandwidth(2.49) == 2
        assert round_bandwidth(-0.2) == 0


class TestRepairChosenNodes:
    def test_noop_when_within_budget(self):
        topo = star_topology(4)
        plan, kept = repair_chosen_nodes(
            [0, 1, 2],
            scores=[0, 5, 3, 1],
            topology=topo,
            costs_of=costs(topo),
            budget=100.0,
        )
        assert kept == {0, 1, 2}

    def test_drops_lowest_scores_first(self):
        topo = star_topology(4)
        plan, kept = repair_chosen_nodes(
            [0, 1, 2, 3],
            scores=[0, 5, 3, 9],
            topology=topo,
            costs_of=costs(topo),
            budget=2.3,  # two star edges at 1.1
            protected=frozenset({0}),
        )
        assert kept == {0, 1, 3}  # node 2 (score 3) dropped before 1 and 3
        assert cost(plan) <= 2.3

    def test_protected_nodes_survive(self):
        topo = star_topology(3)
        __, kept = repair_chosen_nodes(
            [0, 1, 2],
            scores=[0, 1, 2],
            topology=topo,
            costs_of=costs(topo),
            budget=0.0,
            protected=frozenset({0}),
        )
        assert kept == {0}


class TestRepairBandwidths:
    def test_clips_over_allocation(self, small_tree):
        plan = QueryPlan(small_tree, {1: 99})
        repaired = repair_bandwidths(
            plan, [], costs_of=costs(small_tree), budget=100.0
        )
        assert repaired.bandwidth(1) == small_tree.subtree_size(1)

    def test_prefers_free_decrements(self, small_tree):
        # edge 2 never carries a top value; it should shed first
        ones = [{3}, {4}]
        plan = QueryPlan(small_tree, {1: 2, 3: 1, 4: 1, 2: 1})
        repaired = repair_bandwidths(
            plan, ones, costs_of=costs(small_tree), budget=cost(plan) - 1.0
        )
        assert repaired.bandwidth(2) == 0
        hits = sum(count_topk_hits(repaired, o) for o in ones)
        assert hits == 2

    def test_respects_min_bandwidth(self):
        topo = line_topology(3)
        plan = QueryPlan(topo, {1: 2, 2: 2}, requires_all_edges=True)
        repaired = repair_bandwidths(
            plan, [], costs_of=costs(topo), budget=0.0, min_bandwidth=1
        )
        assert repaired.bandwidth(1) == 1
        assert repaired.bandwidth(2) == 1  # floor reached; budget unmet

    def test_budget_reached_when_feasible(self, small_tree):
        ones = [{3, 4, 6}]
        plan = QueryPlan.full(small_tree)
        target = cost(plan) * 0.5
        repaired = repair_bandwidths(
            plan, ones, costs_of=costs(small_tree), budget=target
        )
        assert cost(repaired) <= target


class TestFills:
    def test_fill_chosen_nodes_adds_affordable(self):
        topo = star_topology(5)
        chosen = {0}
        plan = fill_chosen_nodes(
            chosen,
            priorities=[0.0, 0.9, 0.8, 0.0, 0.7],
            topology=topo,
            costs_of=costs(topo),
            budget=2.3,
        )
        assert chosen == {0, 1, 2}  # two fit; zero-priority nodes skipped
        assert cost(plan) <= 2.3

    def test_fill_bandwidths_opens_paths(self):
        """Filling must open whole root paths, not only single edges."""
        topo = line_topology(4)
        plan = QueryPlan(topo, {})
        ones = [{3}] * 3
        filled = fill_bandwidths(plan, ones, costs_of=costs(topo), budget=10.0)
        assert count_topk_hits(filled, {3}) == 1

    def test_fill_bandwidths_stops_at_budget(self, small_tree):
        plan = QueryPlan(small_tree, {})
        ones = [set(small_tree.nodes)]
        filled = fill_bandwidths(
            plan, ones, costs_of=costs(small_tree), budget=3.0
        )
        assert cost(filled) <= 3.0

    def test_fill_bandwidths_noop_without_gain(self, small_tree):
        plan = QueryPlan.full(small_tree)
        filled = fill_bandwidths(
            plan, [{1}], costs_of=costs(small_tree), budget=1e9
        )
        assert filled.bandwidths == plan.bandwidths
