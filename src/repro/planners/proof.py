"""PROSPECTOR-Proof: optimizing proof-carrying plans (paper §4.3).

A proof-carrying plan must use *every* edge (an unvisited node could
hold the maximum), so the decision is purely how much bandwidth each
edge gets.  The LP uses one variable ``p_{j,i,a}`` per sample and
descendant-ancestor pair, meaning "node i's value is proven at ancestor
a when the plan runs on sample j", and maximizes the expected number of
top-k values proven at the root.

Constraints (paper line numbers):
- (13) a value proven at ``a`` is proven at every node between its
  owner and ``a`` (chain monotonicity);
- (12) values from a subtree proven at its parent are capped by the
  subtree edge's bandwidth;
- (14) proving ``i``'s value at ``a`` requires every sibling child
  subtree ``c`` to prove some smaller value; when ``c``'s subtree holds
  no smaller value in the sample the paper generates no constraint
  (runtime condition c.3 covers that case — a documented optimism of
  the formulation);
- (11) cost bounds per-message plus bandwidth costs, with a reserved
  allowance on each non-leaf edge for the proven-count control field.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import BudgetError
from repro.lp.backend import resolve_backend
from repro.lp.fastbuild import CompiledLP, compile_proof, compile_proof_parametric
from repro.obs.spans import maybe_span
from repro.plans.execution import bandwidth_vector, plan_from_vector
from repro.plans.plan import QueryPlan
from repro.planners.base import (
    PlannerConfig,
    PlanningContext,
    observed,
    resolve_planner_config,
    sweep_solutions,
)
from repro.planners.rounding import repair_bandwidths, round_bandwidth

_PROVEN_COUNT_BYTES = 2


class ProofPlanner:
    """PROSPECTOR-Proof bandwidth optimizer.

    Parameters
    ----------
    strict_budget:
        Repair the rounded plan back under the budget (default).
    fill_budget:
        After optimizing, spend any leftover allocation on extra
        bandwidth (prioritizing subtrees that held top-k values in the
        samples).  The paper's Figure 8 phase-1 costs grow with the
        allocated energy — "the first phase acquires more values than
        needed" — which is this behaviour; the extra margin also
        hedges against model error.  Off by default.
    backend:
        LP solver backend instance or registered name; defaults to
        HiGHS.

    Constructed from keywords or a shared
    :class:`~repro.planners.base.PlannerConfig`; the formulation is
    lowered straight to standard-form arrays
    (:mod:`repro.lp.fastbuild`).
    """

    name = "prospector-proof"
    _defaults = PlannerConfig(fill_budget=False)

    def __init__(self, *, config: PlannerConfig | None = None,
                 **overrides) -> None:
        resolved = resolve_planner_config(
            type(self).__name__, self._defaults, config, overrides
        )
        self.strict_budget = resolved.strict_budget
        self.fill_budget = resolved.fill_budget
        self.backend = resolved.backend

    def minimum_cost(self, context: PlanningContext) -> float:
        """Cost of the cheapest legal proof plan (bandwidth 1 everywhere),
        including the control-field reserve and the acquisition total
        (a proof plan visits, and hence measures at, every node)."""
        return (
            self._reserve(context)
            + self._acquisition_total(context)
            + sum(
                context.edge_cost(edge) + context.per_value
                for edge in context.topology.edges
            )
        )

    def _reserve(self, context: PlanningContext) -> float:
        topology = context.topology
        non_leaf_edges = sum(
            1 for edge in topology.edges if not topology.is_leaf(edge)
        )
        return non_leaf_edges * context.energy.per_byte_mj * _PROVEN_COUNT_BYTES

    @staticmethod
    def _acquisition_total(context: PlanningContext) -> float:
        """Constant §4.4 acquisition cost: every node measures."""
        return context.energy.acquisition_mj * context.topology.n

    def compile_fast(self, context: PlanningContext) -> CompiledLP:
        """Lower the formulation straight to standard-form arrays.

        The reserve/acquisition policy stays here: the compiler only
        sees the net budget right-hand side.
        """
        budget_rhs = (
            context.budget
            - self._reserve(context)
            - self._acquisition_total(context)
        )
        return compile_proof(context, budget_rhs=budget_rhs)

    @observed
    def plan(self, context: PlanningContext) -> QueryPlan:
        self._check_budgets(context, [context.budget])
        backend = resolve_backend(self.backend, context.instrumentation)
        compiled = self.compile_fast(context)
        solution = backend.solve_form(compiled.form, compiled.name)
        return self._round(context, solution, compiled.primary_columns)

    def plan_for_budgets(
        self, context: PlanningContext, budgets
    ) -> list[QueryPlan]:
        """One proof plan per budget from a single compiled formulation.

        Mirrors :meth:`plan` member for member (including the
        :class:`~repro.errors.BudgetError` below :meth:`minimum_cost`,
        raised for the first offending budget); the LP compiles once
        and each member patches the budget row's RHS.
        """
        budgets = [float(b) for b in budgets]
        self._check_budgets(context, budgets)
        backend = resolve_backend(self.backend, context.instrumentation)
        reserve = self._reserve(context)
        acquisition_total = self._acquisition_total(context)
        parametric = compile_proof_parametric(
            context,
            budget_rhs_of=lambda budget: budget - reserve - acquisition_total,
        )
        solutions = sweep_solutions(
            backend, parametric, parametric.rhs_values(budgets)
        )
        return [
            self._round(
                replace(context, budget=budget), solution,
                parametric.primary_columns,
            )
            for budget, solution in zip(budgets, solutions)
        ]

    def _check_budgets(self, context: PlanningContext, budgets) -> None:
        """Raise :class:`BudgetError` for the first budget below
        :meth:`minimum_cost`."""
        minimum = self.minimum_cost(context)
        for budget in budgets:
            if budget < minimum:
                raise BudgetError(
                    f"budget {budget:.1f} mJ below the minimum proof plan"
                    f" cost {minimum:.1f} mJ (every edge must carry a value)"
                )

    def _round(self, context: PlanningContext, solution, columns):
        """Round one LP solution's bandwidth columns (at least 1 per
        edge), then repair and fill the plan."""
        bandwidths = {
            edge: max(1, round_bandwidth(float(solution.values[columns[edge]])))
            for edge in context.topology.edges
        }
        return self._repair_and_fill(context, bandwidths)

    def _repair_and_fill(
        self, context: PlanningContext, bandwidths: dict[int, int]
    ) -> QueryPlan:
        """Shared post-solve path: repair and fill one rounded solution."""
        with maybe_span(
            context.instrumentation, "round", planner=self.name
        ):
            plan = QueryPlan(
                context.topology, bandwidths, requires_all_edges=True
            )
            effective_budget = context.budget - self._reserve(context)
            if self.strict_budget:
                # static_cost excludes the proven-count reserve, so repair
                # against the budget net of it
                plan = repair_bandwidths(
                    plan,
                    context.samples.ones_list(),
                    costs_of=context.plan_costs,
                    budget=effective_budget,
                    min_bandwidth=1,
                )
            if self.fill_budget:
                plan = self._fill(plan, context, effective_budget)
            return plan

    def _fill(
        self, plan: QueryPlan, context: PlanningContext, budget: float
    ) -> QueryPlan:
        """Spend leftover budget on extra bandwidth, hottest subtrees first.

        Each pass tries one more unit on every edge in priority order,
        keeping it when the bandwidth vector still fits; each trial is
        costed through :meth:`PlanningContext.plan_costs`.
        """
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
        subtree = topology.subtree_size_array()
        bw = bandwidth_vector(plan)
        grew = True
        while grew:
            grew = False
            for edge in order:
                if bw[edge] >= subtree[edge]:
                    continue
                bw[edge] += 1
                if context.plan_costs(bw)[0] <= budget:
                    grew = True
                else:
                    bw[edge] -= 1
        return plan_from_vector(topology, bw, requires_all_edges=True)
