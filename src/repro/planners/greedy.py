"""PROSPECTOR Greedy (paper §3).

Builds a plan incrementally: as long as the plan's cost stays within
the budget, it picks the unvisited node whose sample column count
(how often the node held a top-k value) is largest, and extends the
plan to fetch that node's value all the way to the root.

Greedy is deliberately topology-blind — it never reasons about sharing
per-message costs between clustered picks — which is exactly the
deficiency LP−LF fixes in the evaluation.

Trial plans are bandwidth vectors (the chosen nodes' root paths
summed), costed through :meth:`PlanningContext.plan_costs`; only the
returned plan is built as a :class:`QueryPlan`.
"""

from __future__ import annotations

import numpy as np

from repro.plans.execution import path_incidence
from repro.plans.plan import QueryPlan
from repro.planners.base import PlanningContext, observed


class GreedyPlanner:
    """The greedy PROSPECTOR.

    Parameters
    ----------
    skip_unaffordable:
        The paper's description stops as soon as the next-best node
        would exceed the budget.  With this flag set, the planner keeps
        scanning for cheaper lower-count nodes instead — a slightly
        stronger variant used by the rounding ablation.
    """

    name = "greedy"

    def __init__(self, skip_unaffordable: bool = False) -> None:
        self.skip_unaffordable = skip_unaffordable

    @observed
    def plan(self, context: PlanningContext) -> QueryPlan:
        topology = context.topology
        counts = context.samples.column_counts()
        # highest count first; prefer shallower nodes on ties (cheaper),
        # then lower ids for determinism
        order = sorted(
            (node for node in topology.nodes if node != topology.root),
            key=lambda node: (-counts[node], topology.depth(node), node),
        )

        # nodes that never appeared in the top k add nothing
        order = [node for node in order if counts[node] > 0]
        incidence = path_incidence(topology)
        if self.skip_unaffordable:
            taken = []
            bw = np.zeros(topology.n, dtype=np.int64)
            for node in order:
                trial = bw + incidence[node]
                if context.plan_costs(trial)[0] <= context.budget:
                    taken.append(node)
                    bw = trial
        else:
            # the paper's rule keeps the longest prefix of the order
            # whose every step fits: cost all prefixes at once and stop
            # before the first that does not
            costs = context.plan_costs(np.cumsum(incidence[order], axis=0))
            fits = costs <= context.budget
            taken = order if fits.all() else order[: int(np.argmin(fits))]
        return QueryPlan.from_chosen_nodes(topology, {topology.root, *taken})
