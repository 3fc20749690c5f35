"""Converting fractional LP solutions into integral plans.

The paper rounds indicator variables at threshold ½, which provably
loses at most a factor of 2 in the objective and costs at most ``2E``
(§4.1).  Because our experiment harness charges plans their *actual*
cost against the budget, we additionally offer deterministic repair
passes that restore strict budget feasibility; the repair is an
implementation extension the paper leaves implicit, and it is ablated
in ``benchmarks/bench_ablation_rounding.py``.

The repair and fill helpers work on bandwidth vectors, not plans: each
round stacks its candidate plans into a ``(C, n)`` bandwidth matrix and
scores them with one ``costs_of`` call (normally
:meth:`~repro.planners.base.PlanningContext.plan_costs`, built on
:func:`~repro.plans.execution.batch_static_cost`) and one
:func:`~repro.plans.execution.batch_count_topk_hits` call.  Only the
plan a helper returns is built as a :class:`QueryPlan`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.network.topology import Topology
from repro.plans.execution import (
    bandwidth_vector,
    batch_count_topk_hits,
    ones_to_matrix,
    path_incidence,
    plan_from_vector,
)
from repro.plans.plan import QueryPlan

ROUND_THRESHOLD = 0.5

CostsOf = Callable[[np.ndarray], np.ndarray]
"""Batched plan cost: ``(C, n)`` bandwidth vectors to ``(C,)`` costs."""


def round_indicator(value: float, threshold: float = ROUND_THRESHOLD) -> int:
    """The paper's ½-threshold rounding for 0/1-intended variables."""
    return 1 if value >= threshold else 0


def round_bandwidth(value: float) -> int:
    """Round a fractional bandwidth to the nearest integer (half up)."""
    return max(0, int(value + 0.5))


def _first_max(*keys: np.ndarray) -> int:
    """Index of the lexicographic maximum of ``keys`` (most significant
    first), the earliest one on a full tie — what a scan keeping the
    best so far under a strict ``>`` returns."""
    order = np.lexsort((-np.arange(keys[0].size),) + keys[::-1])
    return int(order[-1])


def repair_chosen_nodes(
    chosen: Sequence[int],
    scores: Sequence[float],
    topology: Topology,
    costs_of: CostsOf,
    budget: float,
    protected: frozenset[int] = frozenset(),
) -> tuple[QueryPlan, set[int]]:
    """Drop the least valuable chosen nodes until the plan fits budget.

    ``scores`` gives each node's value (e.g., its sample column count);
    nodes in ``protected`` (the root) are never dropped.  Nodes go in
    ascending ``(score, node)`` order, and every drop-prefix of that
    order is costed in one call; the first prefix that fits wins (all
    of them when none does).  Returns the repaired
    :meth:`QueryPlan.from_chosen_nodes` plan together with the
    surviving node set.
    """
    keep = set(chosen)
    droppable = sorted(
        (node for node in keep if node not in protected),
        key=lambda node: (scores[node], node),
    )
    incidence = path_incidence(topology)
    prefixes = np.empty((len(droppable) + 1, topology.n), dtype=np.int64)
    prefixes[0] = incidence[sorted(keep)].sum(axis=0)
    np.subtract(
        prefixes[0], np.cumsum(incidence[droppable], axis=0), out=prefixes[1:]
    )
    fits = costs_of(prefixes) <= budget
    dropped = int(np.argmax(fits)) if fits.any() else len(droppable)
    keep.difference_update(droppable[:dropped])
    return QueryPlan.from_chosen_nodes(topology, keep), keep


def fill_chosen_nodes(
    chosen: set[int],
    priorities: Sequence[float],
    topology: Topology,
    costs_of: CostsOf,
    budget: float,
) -> QueryPlan:
    """Spend leftover budget on additional nodes by gain per millijoule.

    ``priorities`` measure each node's expected contribution (sample
    column counts, optionally LP-fraction-weighted); at each step the
    affordable candidate with the best priority-to-marginal-cost ratio
    is added — marginal, because a node sharing its path with already
    chosen nodes is much cheaper than a fresh subtree.  Ties go to the
    higher priority, then the lower node id.  Each step costs every
    candidate at once as ``chosen`` bandwidths plus that node's root
    path.  ``chosen`` is grown in place; returns its plan.
    """
    incidence = path_incidence(topology)
    bw = incidence[sorted(chosen)].sum(axis=0)
    current_cost = costs_of(bw)[0]
    weights = np.asarray(priorities, dtype=np.float64)
    candidates = np.array(
        [
            node
            for node in range(len(priorities))
            if node not in chosen and priorities[node] > 0
        ],
        dtype=np.int64,
    )
    while candidates.size:
        trials = bw + incidence[candidates]
        trial_costs = costs_of(trials)
        fits = np.flatnonzero(trial_costs <= budget)
        if not fits.size:
            break
        marginal = np.maximum(trial_costs[fits] - current_cost, 1e-9)
        weight = weights[candidates[fits]]
        best = fits[_first_max(weight / marginal, weight, -candidates[fits])]
        chosen.add(int(candidates[best]))
        bw = trials[best]
        current_cost = trial_costs[best]
        candidates = np.delete(candidates, best)
    return QueryPlan.from_chosen_nodes(topology, chosen)


def fill_bandwidths(
    plan: QueryPlan,
    ones_per_sample: list[frozenset[int]] | list[set[int]],
    costs_of: CostsOf,
    budget: float,
) -> QueryPlan:
    """Spend leftover budget on extra bandwidth by exact marginal gain.

    Candidate moves are single-edge increments and whole-path
    increments (one unit on every edge from a node to the root — needed
    to open up a not-yet-reachable subtree); the move with the best
    expected-hit gain per extra millijoule is applied until no move
    gains anything or fits the budget.  Ties go to the larger gain,
    then to the earlier move (single-edge bumps in edge order, then
    path bumps in node order).

    The move set is one boolean matrix over edges, built once from the
    topology's cached path arrays.  Each round applies every surviving
    move to the current bandwidths at once and scores the resulting
    ``(C, n)`` trial matrix with one ``costs_of`` call and one
    :func:`~repro.plans.execution.batch_count_topk_hits` call.  A move
    whose trial cost exceeds the budget is dropped for good: bandwidths
    only grow during filling and the static cost is nondecreasing in
    them, so such a move can never fit later.
    """
    topology = plan.topology
    subtree = topology.subtree_size_array()
    ones_matrix = ones_to_matrix(topology.n, ones_per_sample)

    # single-edge bumps first, then whole-path bumps
    edges = np.asarray(topology.edges, dtype=np.int64)
    moves = np.zeros((edges.size, topology.n), dtype=bool)
    moves[np.arange(edges.size), edges] = True
    moves = np.vstack([moves, path_incidence(topology)[edges].astype(bool)])
    alive = np.ones(len(moves), dtype=bool)

    bw = bandwidth_vector(plan)
    current_hits = int(batch_count_topk_hits(topology, bw, ones_matrix).sum())
    current_cost = costs_of(bw)[0]
    while True:
        trials = np.where(moves, np.minimum(bw + 1, subtree), bw)
        # a move with every edge already at capacity changes nothing
        live = np.flatnonzero(alive & (trials != bw).any(axis=1))
        trial_costs = costs_of(trials[live])
        over = trial_costs > budget
        alive[live[over]] = False  # can never fit again; see docstring
        live, trial_costs = live[~over], trial_costs[~over]
        if not live.size:
            break
        totals = batch_count_topk_hits(topology, trials[live], ones_matrix)
        gains = totals.sum(axis=1) - current_hits
        gaining = np.flatnonzero(gains > 0)
        if not gaining.size:
            break
        extra = np.maximum(trial_costs[gaining] - current_cost, 1e-9)
        best = gaining[_first_max(gains[gaining] / extra, gains[gaining])]
        bw = trials[live[best]]
        current_cost = trial_costs[best]
        current_hits += int(gains[best])
    return plan_from_vector(topology, bw, plan.requires_all_edges)


def repair_bandwidths(
    plan: QueryPlan,
    ones_per_sample: list[frozenset[int]] | list[set[int]],
    costs_of: CostsOf,
    budget: float,
    min_bandwidth: int = 0,
) -> QueryPlan:
    """Greedily decrement bandwidths until the plan fits budget.

    Pointless over-allocation (bandwidth beyond the subtree size, which
    can never be used and only inflates the budgeted cost) is clipped
    first.  Each step then removes one unit from the edge whose
    decrement loses the fewest expected top-k hits over the samples
    (the earliest edge on a tie); all candidate decrements of a step
    are evaluated together with the vectorized tree recursion
    (:func:`~repro.plans.execution.batch_count_topk_hits`).
    ``min_bandwidth=1`` keeps proof-carrying plans valid.
    """
    topology = plan.topology
    ones_matrix = ones_to_matrix(topology.n, ones_per_sample)
    edges = np.asarray(topology.edges, dtype=np.int64)

    bw = np.minimum(bandwidth_vector(plan), topology.subtree_size_array())
    while costs_of(bw)[0] > budget:
        candidates = edges[bw[edges] > min_bandwidth]
        if not candidates.size:
            break  # nothing left to shed; caller decides what to do
        trial_bw = np.repeat(bw[None, :], candidates.size, axis=0)
        trial_bw[np.arange(candidates.size), candidates] -= 1
        totals = batch_count_topk_hits(topology, trial_bw, ones_matrix).sum(axis=1)
        # decrements never gain hits, so the first smallest loss is the
        # first largest total
        bw = trial_bw[int(np.argmax(totals))]
    return plan_from_vector(topology, bw, plan.requires_all_edges)
