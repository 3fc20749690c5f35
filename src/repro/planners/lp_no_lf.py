"""PROSPECTOR LP−LF: topology-aware planning without local filtering
(paper §4.1).

One 0/1 variable ``x_i`` per node ("fetch i's value to the root") and
one 0/1 variable ``y_e`` per edge ("the plan communicates over e").
Choosing a node forces every edge above it on (line 2), the budget
bounds per-message plus per-value costs (line 3), and the objective
maximizes the total sample column count of the chosen nodes — i.e.,
minimizes the expected number of missed top-k values (line 1).

The only input the formulation needs from the sample matrix is its
vector of column sums, the observation at the end of §4.1.
"""

from __future__ import annotations

from dataclasses import replace

from repro.lp.backend import resolve_backend
from repro.lp.fastbuild import (
    CompiledLP,
    ReplanCache,
    compile_lp_no_lf,
    compile_lp_no_lf_parametric,
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
    ROUND_THRESHOLD,
    fill_chosen_nodes,
    repair_chosen_nodes,
)


class LPNoLFPlanner:
    """PROSPECTOR LP−LF.

    Constructed from keywords or a shared
    :class:`~repro.planners.base.PlannerConfig`:

    Parameters
    ----------
    config:
        A :class:`~repro.planners.base.PlannerConfig`; explicit
        keywords below override its fields.
    strict_budget:
        When True (default), the rounded plan is repaired to fit the
        budget exactly by dropping the lowest-count chosen nodes; when
        False the paper's raw ½-rounding (cost <= 2E guarantee) is
        returned as-is.
    fill_budget:
        After rounding/repair, spend leftover budget on additional
        nodes in order of their LP fractional value (then sample
        count).  The ½-threshold alone strands budget whenever the LP
        optimum is fractional; filling keeps the plan LP-guided while
        using the full allocation.  On by default; the rounding
        ablation benchmark compares.
    backend:
        LP solver backend instance or registered name (see
        :func:`repro.lp.backend.available_backends`); defaults to
        HiGHS.

    The formulation is lowered straight to standard-form arrays
    (:mod:`repro.lp.fastbuild`), with a replan cache for the
    sample-independent blocks.
    """

    name = "lp-no-lf"
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
        when one is installed (content-fingerprint keyed)."""
        if self.form_cache is not None:
            return self.form_cache.parametric(
                "lp-no-lf",
                context,
                lambda: compile_lp_no_lf_parametric(
                    context, cache=self.replan_cache
                ),
            )
        return compile_lp_no_lf_parametric(context, cache=self.replan_cache)

    def compile_fast(self, context: PlanningContext) -> CompiledLP:
        """Lower the formulation straight to standard-form arrays.

        Sample-independent blocks come from ``self.replan_cache``.
        With a cross-session ``form_cache`` installed, a hit returns
        the cached arrays with only the budget RHS patched.
        """
        if self.form_cache is not None:
            parametric = self._parametric(context)
            return replace(
                parametric.compiled,
                form=parametric.form_for(context.budget),
            )
        return compile_lp_no_lf(context, cache=self.replan_cache)

    @observed
    def plan(self, context: PlanningContext) -> QueryPlan:
        backend = resolve_backend(self.backend, context.instrumentation)
        compiled = self.compile_fast(context)
        solution = backend.solve_form(compiled.form, compiled.name)
        columns = compiled.primary_columns
        values = solution.values
        return self._round_and_fill(
            context, lambda node: float(values[columns[node]])
        )

    def plan_for_budgets(
        self, context: PlanningContext, budgets
    ) -> list[QueryPlan]:
        """One plan per budget, sharing a single compiled formulation.

        The formulation compiles once (through the replan cache) and
        each member patches the budget row's RHS, re-solved cold in one
        loaded HiGHS session.  The results are element-wise identical
        to calling :meth:`plan` once per budget.
        """
        budgets = [float(b) for b in budgets]
        backend = resolve_backend(self.backend, context.instrumentation)
        parametric = self._parametric(context)
        solutions = sweep_solutions(
            backend, parametric, parametric.rhs_values(budgets),
            form_cache=self.form_cache, formulation="lp-no-lf",
            context=context,
        )
        columns = parametric.primary_columns
        plans = []
        for budget, solution in zip(budgets, solutions):
            values = solution.values
            plans.append(
                self._round_and_fill(
                    replace(context, budget=budget),
                    lambda node, values=values: float(values[columns[node]]),
                )
            )
        return plans

    def _round_and_fill(self, context: PlanningContext, x_value) -> QueryPlan:
        """Shared post-solve path: round, repair, and fill one solution."""
        with maybe_span(
            context.instrumentation, "round", planner=self.name
        ):
            topology = context.topology
            chosen = {
                node
                for node in topology.nodes
                if x_value(node) >= ROUND_THRESHOLD
            }
            chosen.add(topology.root)

            if not self.strict_budget:
                return QueryPlan.from_chosen_nodes(topology, chosen)

            counts = context.samples.column_counts()
            plan, kept = repair_chosen_nodes(
                chosen=sorted(chosen),
                scores=counts,
                topology=topology,
                costs_of=context.plan_costs,
                budget=context.budget,
                protected=frozenset({topology.root}),
            )
            if not self.fill_budget:
                return plan

            # expected contribution = sample count, with the LP's
            # fractional preference as a mild tie-break
            priorities = [
                float(counts[node]) + 0.5 * x_value(node)
                if counts[node] > 0
                else 0.0
                for node in topology.nodes
            ]
            return fill_chosen_nodes(
                kept, priorities, topology, context.plan_costs, context.budget
            )
