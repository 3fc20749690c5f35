"""PROSPECTOR LP+LF: planning *with* local filtering (paper §4.2).

The plan is a bandwidth assignment ``b_e`` per edge.  The formulation
uses one variable ``z_{j,i}`` per 1-entry of the sample matrix ("the
plan returns node i's value when run on sample j"), which is what lets
the optimizer express run-time filtering decisions: a subtree can be
granted fewer slots than the values it will examine.

Constraints (paper line numbers):
- (7) returning i's value in any sample uses every edge above i;
- (8) the top-k values of sample j crossing edge e are capped by b_e;
- (6) cost: per-message on used edges + per-value times bandwidth.

For integral bandwidths the per-sample LP optimum coincides with the
sort-and-forward execution outcome (tree max-flow; tested property), so
the objective really is the expected number of returned top-k values.
"""

from __future__ import annotations

from dataclasses import replace

from repro.lp.backend import resolve_backend
from repro.lp.fastbuild import (
    CompiledLP,
    ReplanCache,
    compile_lp_lf,
    compile_lp_lf_parametric,
)
from repro.obs.spans import maybe_span
from repro.plans.plan import QueryPlan
from repro.planners.base import (
    PlannerConfig,
    PlanningContext,
    observed,
    resolve_planner_config,
    sweep_solutions,
)
from repro.planners.rounding import (
    fill_bandwidths,
    repair_bandwidths,
    round_bandwidth,
)


class LPLFPlanner:
    """PROSPECTOR LP+LF.

    Constructed from keywords or a shared
    :class:`~repro.planners.base.PlannerConfig`:

    Parameters
    ----------
    config:
        A :class:`~repro.planners.base.PlannerConfig`; explicit
        keywords below override its fields.
    strict_budget:
        Repair the rounded bandwidths back under the budget (default);
        otherwise return the raw rounding (factor-2 cost guarantee).
    fill_budget:
        Spend leftover budget (stranded by downward rounding of
        fractional bandwidths) on the increments with the best expected
        hit gain per millijoule.  On by default; ablated in the
        rounding benchmark.
    backend:
        LP solver backend instance or registered name (see
        :func:`repro.lp.backend.available_backends`); defaults to
        HiGHS.
    replan_cache / form_cache:
        Optional shared caches (see :class:`PlannerConfig`); the
        service layer installs one pool across all sessions.

    The formulation is lowered straight to standard-form arrays
    (:mod:`repro.lp.fastbuild`), with the replan cache holding the
    sample-independent blocks.
    """

    name = "lp-lf"
    _defaults = PlannerConfig()

    def __init__(self, *, config: PlannerConfig | None = None,
                 **overrides) -> None:
        resolved = resolve_planner_config(
            type(self).__name__, self._defaults, config, overrides
        )
        self.strict_budget = resolved.strict_budget
        self.fill_budget = resolved.fill_budget
        self.backend = resolved.backend
        # explicit None-check: an empty shared ReplanCache is falsy
        self.replan_cache = (
            resolved.replan_cache
            if resolved.replan_cache is not None
            else ReplanCache()
        )
        self.form_cache = resolved.form_cache

    def _parametric(self, context: PlanningContext):
        """The compiled parametric form, via the cross-session cache
        when one is installed (content-fingerprint keyed, so two
        sessions over equal topologies/windows compile exactly once)."""
        if self.form_cache is not None:
            return self.form_cache.parametric(
                "lp-lf",
                context,
                lambda: compile_lp_lf_parametric(
                    context, cache=self.replan_cache
                ),
            )
        return compile_lp_lf_parametric(context, cache=self.replan_cache)

    def compile_fast(self, context: PlanningContext) -> CompiledLP:
        """Lower the formulation straight to standard-form arrays.

        Sample-independent blocks come from ``self.replan_cache``.
        With a cross-session ``form_cache`` installed, a hit returns
        the cached arrays with only the budget RHS patched — no
        compile at all.
        """
        if self.form_cache is not None:
            parametric = self._parametric(context)
            return replace(
                parametric.compiled,
                form=parametric.form_for(context.budget),
            )
        return compile_lp_lf(context, cache=self.replan_cache)

    @observed
    def plan(self, context: PlanningContext) -> QueryPlan:
        backend = resolve_backend(self.backend, context.instrumentation)
        compiled = self.compile_fast(context)
        solution = backend.solve_form(compiled.form, compiled.name)
        return self._round(context, solution, compiled.primary_columns)

    def plan_for_budgets(
        self, context: PlanningContext, budgets
    ) -> list[QueryPlan]:
        """One plan per budget, sharing a single compiled formulation.

        The formulation compiles once (through the replan cache) and
        each member patches the budget row's RHS: the HiGHS backend
        re-solves each member cold in one loaded session, the pure
        simplex warm-starts it.  The results are element-wise identical
        to calling :meth:`plan` once per budget.
        """
        budgets = [float(b) for b in budgets]
        backend = resolve_backend(self.backend, context.instrumentation)
        parametric = self._parametric(context)
        solutions = sweep_solutions(
            backend, parametric, parametric.rhs_values(budgets),
            form_cache=self.form_cache, formulation="lp-lf",
            context=context,
        )
        return [
            self._round(
                replace(context, budget=budget), solution,
                parametric.primary_columns,
            )
            for budget, solution in zip(budgets, solutions)
        ]

    def _round(self, context: PlanningContext, solution, bandwidth_of):
        """Round one LP solution's bandwidth columns, then repair and
        fill the plan."""
        bandwidths = {
            edge: round_bandwidth(float(solution.values[bandwidth_of[edge]]))
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
            plan = QueryPlan(context.topology, bandwidths)
            if not self.strict_budget:
                return plan
            plan = repair_bandwidths(
                plan,
                context.samples.ones_list(),
                costs_of=context.plan_costs,
                budget=context.budget,
            )
            if not self.fill_budget:
                return plan
            return fill_bandwidths(
                plan,
                context.samples.ones_list(),
                costs_of=context.plan_costs,
                budget=context.budget,
            )
