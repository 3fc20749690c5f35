"""Scalar reference implementations of plan costing and rounding.

These are the original one-plan-at-a-time versions of the rounding
helpers in :mod:`repro.planners.rounding` and of
``QueryPlan.static_cost``: every trial is a :class:`QueryPlan` and its
cost is a sum of :class:`Message` costs.  The production code evaluates
whole candidate matrices with
:func:`~repro.plans.execution.batch_static_cost` instead; the
differential test in ``test_rounding_oracle.py`` checks that both give
identical plans and bitwise-identical costs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.plans.execution import (
    bandwidth_vector,
    batch_count_topk_hits,
    ones_to_matrix,
)
from repro.plans.plan import Message, QueryPlan


def static_cost(
    plan: QueryPlan,
    energy: EnergyModel,
    failures: LinkFailureModel | None = None,
) -> float:
    """The plan's budgeted collection-phase cost: one message per
    used edge, carrying that edge's (effective) bandwidth of values.
    This is what the LP's cost constraint bounds; the simulator's
    measured cost can only be lower (subtrees may supply fewer
    values than budgeted).
    """
    active = plan.visited_nodes
    total = 0.0
    for edge in plan.used_edges:
        if edge not in active:
            continue  # cut off by a zero-bandwidth ancestor: never triggered
        message = Message(edge, plan.effective_bandwidth(edge))
        total += message.cost(energy, failures)
    return total


def plan_cost(
    plan: QueryPlan,
    energy: EnergyModel,
    failures: LinkFailureModel | None = None,
) -> float:
    """Static (budgeted) cost of a plan under this context's costs.

    Includes per-node acquisition energy for every visited node
    when the energy model charges it (§4.4 "Modeling Other Costs").
    """
    cost = static_cost(plan, energy, failures)
    if energy.acquisition_mj:
        cost += energy.acquisition_mj * len(plan.visited_nodes)
    return cost


def repair_chosen_nodes(
    chosen: Sequence[int],
    scores: Sequence[float],
    build_plan: Callable[[set[int]], QueryPlan],
    cost_of: Callable[[QueryPlan], float],
    budget: float,
    protected: frozenset[int] = frozenset(),
) -> tuple[QueryPlan, set[int]]:
    """Drop the least valuable chosen nodes until the plan fits budget.

    ``scores`` gives each node's value (e.g., its sample column count);
    nodes in ``protected`` (the root) are never dropped.  Returns the
    repaired plan together with the surviving node set.
    """
    keep = set(chosen)
    plan = build_plan(keep)
    droppable = sorted(
        (node for node in keep if node not in protected),
        # (score, node): ties no longer fall back on set iteration order
        key=lambda node: (scores[node], node),
    )
    index = 0
    while cost_of(plan) > budget and index < len(droppable):
        keep.discard(droppable[index])
        index += 1
        plan = build_plan(keep)
    return plan, keep


def fill_chosen_nodes(
    chosen: set[int],
    priorities: Sequence[float],
    build_plan: Callable[[set[int]], QueryPlan],
    cost_of: Callable[[QueryPlan], float],
    budget: float,
) -> QueryPlan:
    """Spend leftover budget on additional nodes by gain per millijoule.

    ``priorities`` measure each node's expected contribution (sample
    column counts, optionally LP-fraction-weighted); at each step the
    affordable candidate with the best priority-to-marginal-cost ratio
    is added — marginal, because a node sharing its path with already
    chosen nodes is much cheaper than a fresh subtree.
    """
    plan = build_plan(chosen)
    current_cost = cost_of(plan)
    candidates = {
        node
        for node in range(len(priorities))
        if node not in chosen and priorities[node] > 0
    }
    while candidates:
        best = None  # (ratio, priority, -node, node, trial, trial_cost)
        for node in candidates:
            trial = build_plan(chosen | {node})
            trial_cost = cost_of(trial)
            if trial_cost > budget:
                continue
            marginal = max(trial_cost - current_cost, 1e-9)
            key = (priorities[node] / marginal, priorities[node], -node)
            if best is None or key > best[0]:
                best = (key, node, trial, trial_cost)
        if best is None:
            return plan
        __, node, plan, current_cost = best
        chosen.add(node)
        candidates.discard(node)
    return plan


def fill_bandwidths(
    plan: QueryPlan,
    ones_per_sample: list[frozenset[int]] | list[set[int]],
    cost_of: Callable[[QueryPlan], float],
    budget: float,
) -> QueryPlan:
    """Spend leftover budget on extra bandwidth by exact marginal gain.

    Candidate moves are single-edge increments and whole-path
    increments (one unit on every edge from a node to the root — needed
    to open up a not-yet-reachable subtree); the move with the best
    expected-hit gain per extra millijoule is applied until no move
    gains anything or fits the budget.

    The move set is constructed once (from the topology's cached path
    arrays) and every surviving candidate's hit count is evaluated in
    one :func:`~repro.plans.execution.batch_count_topk_hits` call per
    round.  A move whose trial cost exceeds the budget is dropped for
    good: bandwidths only grow during filling and the static cost is
    nondecreasing in them, so such a move can never fit later.
    """
    topology = plan.topology
    subtree = topology.subtree_size_array()
    ones_matrix = ones_to_matrix(topology.n, ones_per_sample)

    # hoisted move set: single-edge bumps first, then whole-path bumps
    # (same order as the scalar implementation, so ties resolve alike)
    indptr, path_flat = topology.path_edge_arrays()
    moves: list[np.ndarray] = [
        np.array([edge], dtype=np.int64) for edge in topology.edges
    ]
    moves.extend(
        path_flat[indptr[node] : indptr[node + 1]]
        for node in topology.nodes
        if node != topology.root
    )
    alive = np.ones(len(moves), dtype=bool)

    bw = bandwidth_vector(plan)
    current_hits = int(batch_count_topk_hits(topology, bw, ones_matrix).sum())
    current_cost = cost_of(plan)
    while True:
        trials: list[tuple[QueryPlan, float]] = []
        trial_rows: list[np.ndarray] = []
        for index, move in enumerate(moves):
            if not alive[index]:
                continue
            trial_bw = bw.copy()
            trial_bw[move] = np.minimum(trial_bw[move] + 1, subtree[move])
            if np.array_equal(trial_bw, bw):
                continue  # every edge of the move is already at capacity
            bandwidths = dict(plan.bandwidths)
            for edge in move:
                bandwidths[int(edge)] = int(trial_bw[edge])
            trial = QueryPlan(
                topology, bandwidths, requires_all_edges=plan.requires_all_edges
            )
            trial_cost = cost_of(trial)
            if trial_cost > budget:
                alive[index] = False  # can never fit again; see docstring
                continue
            trials.append((trial, trial_cost))
            trial_rows.append(trial_bw)
        if not trials:
            return plan
        totals = batch_count_topk_hits(
            topology, np.stack(trial_rows), ones_matrix
        ).sum(axis=1)
        best = None  # (gain_per_mj, gain, trial, trial_cost)
        for (trial, trial_cost), total in zip(trials, totals):
            gain = int(total) - current_hits
            if gain <= 0:
                continue
            extra = max(trial_cost - current_cost, 1e-9)
            key = (gain / extra, gain)
            if best is None or key > best[0]:
                best = (key, gain, trial, trial_cost)
        if best is None:
            return plan
        __, gain, plan, current_cost = best
        bw = bandwidth_vector(plan)
        current_hits += gain


def repair_bandwidths(
    plan: QueryPlan,
    ones_per_sample: list[frozenset[int]] | list[set[int]],
    cost_of: Callable[[QueryPlan], float],
    budget: float,
    min_bandwidth: int = 0,
) -> QueryPlan:
    """Greedily decrement bandwidths until the plan fits budget.

    Each step removes one unit from the edge whose decrement loses the
    fewest expected top-k hits over the samples; all candidate
    decrements of a step are evaluated together with the vectorized
    tree recursion (:func:`~repro.plans.execution.batch_count_topk_hits`).
    ``min_bandwidth=1`` keeps proof-carrying plans valid.
    """
    topology = plan.topology
    ones_matrix = ones_to_matrix(topology.n, ones_per_sample)

    # clip pointless over-allocation first: bandwidth beyond the subtree
    # size can never be used and only inflates the budgeted cost
    clipped = dict(plan.bandwidths)
    for edge in topology.edges:
        clipped[edge] = min(clipped[edge], topology.subtree_size(edge))
    plan = QueryPlan(topology, clipped, requires_all_edges=plan.requires_all_edges)

    while cost_of(plan) > budget:
        candidates = [e for e in topology.edges if plan.bandwidths[e] > min_bandwidth]
        if not candidates:
            break  # nothing left to shed; caller decides what to do
        bw = bandwidth_vector(plan)
        current = int(batch_count_topk_hits(topology, bw, ones_matrix).sum())
        trial_bw = np.repeat(bw[None, :], len(candidates), axis=0)
        trial_bw[np.arange(len(candidates)), candidates] -= 1
        totals = batch_count_topk_hits(topology, trial_bw, ones_matrix).sum(axis=1)
        best_edge = None
        best_loss = None
        for edge, total in zip(candidates, totals):
            loss = current - int(total)
            if best_loss is None or loss < best_loss:
                best_loss = loss
                best_edge = edge
                if loss == 0:
                    break  # free decrement: take it immediately
        assert best_edge is not None
        plan = plan.with_bandwidth(best_edge, plan.bandwidths[best_edge] - 1)
    return plan


def greedy_plan(context, skip_unaffordable: bool = False) -> QueryPlan:
    """``GreedyPlanner.plan``: one trial plan per node of the order."""
    topology = context.topology
    counts = context.samples.column_counts()
    # highest count first; prefer shallower nodes on ties (cheaper),
    # then lower ids for determinism
    order = sorted(
        (node for node in topology.nodes if node != topology.root),
        key=lambda node: (-counts[node], topology.depth(node), node),
    )

    chosen: set[int] = {topology.root}
    plan = QueryPlan.from_chosen_nodes(topology, chosen)
    for node in order:
        if counts[node] == 0:
            break  # nodes that never appeared in the top k add nothing
        trial = QueryPlan.from_chosen_nodes(topology, chosen | {node})
        if plan_cost(trial, context.energy, context.failures) <= context.budget:
            chosen.add(node)
            plan = trial
        elif not skip_unaffordable:
            break
    return plan


def proof_fill(plan: QueryPlan, context, budget: float) -> QueryPlan:
    """``ProofPlanner._fill``: one trial plan per edge increment."""
    topology = context.topology
    descendant_sets = topology.descendant_sets()
    ones = context.samples.ones_list()
    heat = {
        edge: max(len(o & descendant_sets[edge]) for o in ones)
        for edge in topology.edges
    }
    # deterministic priority: hot, deep subtrees first
    order = sorted(
        topology.edges,
        key=lambda e: (-heat[e], -topology.depth(e), e),
    )
    grew = True
    while grew:
        grew = False
        for edge in order:
            if plan.bandwidths[edge] >= topology.subtree_size(edge):
                continue
            trial = plan.with_bandwidth(edge, plan.bandwidths[edge] + 1)
            if plan_cost(trial, context.energy, context.failures) <= budget:
                plan = trial
                grew = True
    return plan
