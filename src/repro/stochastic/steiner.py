"""Two-stage stochastic Steiner tree on a tree network (paper §3.1).

Day 1: buy edges at cost ``c_e`` knowing only the scenario
distribution.  Day 2: a scenario (a set of nodes needing connectivity
to the root) is revealed; missing edges must be bought at inflated
cost ``sigma * c_e``.  On a *tree*, connecting a node means buying
every edge on its root path, so the LP is simply::

    minimize   sum c_e x_e  +  (1/m) sum_s sum_e sigma c_e y_{e,s}
    subject to x_e + y_{e,s} >= 1   for every edge e on the root path
                                    of any terminal of scenario s

The budgeted form bounds the first-stage spend instead and minimizes
the expected second stage — exactly the shape the paper bounds its
top-k planning with ("we bound the first stage cost and optimize the
second stage cost").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BudgetError, ModelError
from repro.lp.backend import resolve_backend
from repro.lp.fastbuild import _assemble
from repro.lp.standard_form import StandardForm
from repro.network.topology import Topology
from repro.stochastic.scenarios import ScenarioSet

_LP_NAME = "two-stage-steiner"


@dataclass
class SteinerSolution:
    """A solved two-stage instance."""

    first_stage_edges: frozenset[int]
    """Edges bought on day 1 (after ½-threshold rounding)."""

    first_stage_cost: float
    expected_second_stage_cost: float
    lp_objective: float
    fractional_first_stage: dict[int, float]

    @property
    def total_expected_cost(self) -> float:
        return self.first_stage_cost + self.expected_second_stage_cost


class TwoStageSteinerTree:
    """The two-stage stochastic Steiner LP over a tree.

    Parameters
    ----------
    topology:
        The tree; terminals connect to its root.
    edge_costs:
        Day-1 cost per edge (keyed by child endpoint); default 1.0.
    inflation:
        ``sigma``: how much more expensive edges are on day 2.
    """

    def __init__(
        self,
        topology: Topology,
        edge_costs: dict[int, float] | None = None,
        inflation: float = 2.0,
    ) -> None:
        if inflation <= 0:
            raise ModelError("inflation must be positive")
        self.topology = topology
        self.inflation = inflation
        self.edge_costs = {
            edge: (edge_costs or {}).get(edge, 1.0) for edge in topology.edges
        }
        for edge, cost in self.edge_costs.items():
            if cost < 0:
                raise ModelError(f"edge {edge} has negative cost {cost}")

    # -- shared LP skeleton ---------------------------------------------------
    def _scenario_edges(self, scenario: frozenset[int]) -> set[int]:
        needed: set[int] = set()
        for terminal in scenario:
            needed.update(self.topology.path_edges(terminal))
        return needed

    def _compile(
        self, scenarios: ScenarioSet, first_stage_budget: float | None
    ) -> StandardForm:
        """The LP as standard-form arrays, minimized.

        Columns: ``x_e`` per edge in topology order, then for each
        scenario one ``y_{e,s}`` per edge its terminals need.  Rows: one
        cover row per ``y`` column, ``x_e + y_{e,s} >= 1`` negated to
        ``-x_e - y_{e,s} <= -1``; with a budget, then the row
        ``sum_e c_e x_e <= budget``.  The objective is the expected
        second stage, plus the first stage when there is no budget.
        """
        edges = self.topology.edges
        x_col = {edge: col for col, edge in enumerate(edges)}
        first = [self.edge_costs[edge] for edge in edges]
        recourse_scale = scenarios.probability * self.inflation
        recourse: list[float] = []
        rows: list[int] = []
        cols: list[int] = []
        for scenario in scenarios:
            for edge in self._scenario_edges(scenario):
                rows += (len(recourse), len(recourse))
                cols += (x_col[edge], len(edges) + len(recourse))
                recourse.append(recourse_scale * self.edge_costs[edge])
        vals = [-1.0] * len(rows)
        b_ub = [-1.0] * len(recourse)
        if first_stage_budget is None:
            c = first + recourse
        else:
            rows += [len(recourse)] * len(edges)
            cols += range(len(edges))
            vals += first
            b_ub.append(float(first_stage_budget))
            c = [0.0] * len(edges) + recourse
        return _assemble(
            c=np.array(c, dtype=float),
            constant=0.0,
            maximize=False,
            rows=np.array(rows, dtype=np.int64),
            cols=np.array(cols, dtype=np.int64),
            vals=np.array(vals, dtype=float),
            b_ub=np.array(b_ub, dtype=float),
            bounds=[(0.0, 1.0)] * len(c),
        )

    def _solve(
        self, scenarios: ScenarioSet, first_stage_budget: float | None, backend
    ) -> SteinerSolution:
        form = self._compile(scenarios, first_stage_budget)
        solution = resolve_backend(backend).solve_form(form, _LP_NAME)
        # the x columns come first, in topology edge order
        fractional = {
            edge: float(solution.values[col])
            for col, edge in enumerate(self.topology.edges)
        }
        return self._extract(scenarios, solution.objective, fractional)

    def _extract(
        self, scenarios: ScenarioSet, lp_objective: float, fractional
    ) -> SteinerSolution:
        bought = frozenset(e for e, v in fractional.items() if v >= 0.5)
        first_cost = sum(self.edge_costs[e] for e in bought)
        # expected recourse of the *rounded* first stage
        second = 0.0
        for scenario in scenarios:
            missing = self._scenario_edges(scenario) - bought
            second += self.inflation * sum(
                self.edge_costs[e] for e in missing
            )
        second *= scenarios.probability
        return SteinerSolution(
            first_stage_edges=bought,
            first_stage_cost=first_cost,
            expected_second_stage_cost=second,
            lp_objective=lp_objective,
            fractional_first_stage=fractional,
        )

    # -- the two problem forms ---------------------------------------------
    def solve_total_cost(self, scenarios: ScenarioSet, backend=None) -> SteinerSolution:
        """Minimize day-1 cost plus expected day-2 recourse."""
        return self._solve(scenarios, None, backend)

    def solve_budgeted(
        self,
        scenarios: ScenarioSet,
        first_stage_budget: float,
        backend=None,
    ) -> SteinerSolution:
        """Bound the day-1 spend; minimize the expected day-2 cost."""
        if first_stage_budget < 0:
            raise BudgetError("first-stage budget must be non-negative")
        return self._solve(scenarios, first_stage_budget, backend)
