"""Shared planner interfaces and the planning context.

A :class:`PlanningContext` bundles everything the PROSPECTOR
formulations need: the tree, the energy model (optionally inflated for
flaky links, paper §4.4), the sample matrix, ``k`` and the energy
budget ``E``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Protocol

import numpy as np

from repro.errors import BudgetError, SamplingError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology
from repro.obs import Instrumentation
from repro.plans.execution import (
    bandwidth_vector,
    batch_static_cost,
    batch_visited,
)
from repro.plans.plan import QueryPlan
from repro.sampling.matrix import SampleMatrix


@dataclass
class PlanningContext:
    """Inputs common to every PROSPECTOR planner."""

    topology: Topology
    energy: EnergyModel
    samples: SampleMatrix
    k: int
    budget: float
    failures: LinkFailureModel | None = None
    instrumentation: Instrumentation | None = None
    """Optional observability sink: planners decorated with
    :func:`observed` record a ``plan`` span and the build metrics
    here, and LP-based planners hand it to their solver backend."""

    def __post_init__(self) -> None:
        if self.samples.num_nodes != self.topology.n:
            raise SamplingError(
                f"sample matrix covers {self.samples.num_nodes} nodes,"
                f" topology has {self.topology.n}"
            )
        if self.k < 1:
            raise BudgetError("k must be >= 1")
        if self.budget < 0:
            raise BudgetError("energy budget must be non-negative")

    def edge_cost(self, edge: int) -> float:
        """Per-message cost of one edge, inflated by expected failure
        re-routing cost when a failure model is attached (§4.4)."""
        base = self.energy.per_message_mj
        if self.failures is not None:
            base += self.failures.expected_penalty(edge)
        return base

    @property
    def per_value(self) -> float:
        """Cost of moving one value across one edge."""
        return self.energy.per_value_mj

    def plan_costs(self, bandwidths: np.ndarray) -> np.ndarray:
        """Static (budgeted) costs of ``(C, n)`` candidate bandwidth
        vectors under this context's costs, as a ``(C,)`` array.

        Includes per-node acquisition energy for every visited node
        when the energy model charges it (§4.4 "Modeling Other Costs").
        The rounding helpers score whole rounds of trial plans with one
        call.
        """
        costs = batch_static_cost(
            self.topology, bandwidths, self.energy, self.failures
        )
        if self.energy.acquisition_mj:
            visited = batch_visited(self.topology, bandwidths).sum(axis=1)
            costs += self.energy.acquisition_mj * visited
        return costs

    def plan_cost(self, plan: QueryPlan) -> float:
        """Static (budgeted) cost of one plan: :meth:`plan_costs` of its
        bandwidth vector."""
        return float(self.plan_costs(bandwidth_vector(plan))[0])


@dataclass(frozen=True)
class PlannerConfig:
    """Construction knobs shared by the LP-based planners.

    The counterpart of :class:`~repro.query.engine.EngineConfig` for
    planner construction: one keyword-only object, so
    ``LPLFPlanner(config=PlannerConfig(...))``,
    ``LPLFPlanner(strict_budget=False)`` and the service layer's
    per-session planner factories all spell options the same way.
    Explicit keyword arguments override the config's fields.
    """

    strict_budget: bool = True
    """Repair the rounded bandwidths back under the budget."""

    fill_budget: bool = True
    """Spend leftover budget on the best expected-hit increments."""

    backend: object = None
    """LP solver backend instance or registered name (default HiGHS)."""

    replan_cache: object = None
    """Optional :class:`~repro.lp.fastbuild.ReplanCache` to share
    across planners (the service installs one per shared-cache pool);
    ``None`` gives the planner a private cache."""

    form_cache: object = None
    """Optional cross-session compiled-form cache (duck-typed; see
    :class:`repro.service.cache.SharedPlanCache`).  When set, LP
    planners fetch whole compiled formulations from it by content
    fingerprint instead of recompiling per planner instance."""


def resolve_planner_config(
    planner_name: str,
    defaults: PlannerConfig,
    config: PlannerConfig | None,
    overrides: dict,
) -> PlannerConfig:
    """Merge a config object and keyword overrides.

    Precedence (highest first): explicit keyword overrides, ``config``,
    the planner's own ``defaults``.  Unknown keywords raise
    :class:`TypeError`.
    """
    merged = config if config is not None else defaults
    known = {f.name for f in fields(PlannerConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise TypeError(
            f"{planner_name} got unexpected keyword arguments"
            f" {sorted(unknown)}"
        )
    supplied = {k: v for k, v in overrides.items() if v is not None}
    if supplied:
        merged = replace(merged, **supplied)
    return merged


def sweep_solutions(
    backend,
    parametric,
    rhs_values,
    *,
    form_cache=None,
    formulation: str | None = None,
    context: "PlanningContext | None" = None,
):
    """Solve a budget ladder, through the form cache when one is set.

    The cross-session form cache's solution cache
    (:meth:`repro.service.cache.SharedPlanCache.sweep_solutions`) lets
    equal-content tenants pay one batch solve; otherwise the backend's
    ``solve_batch`` runs the ladder (one HiGHS session re-solved cold
    per member).  Both return solutions element-wise identical to
    independent cold solves.
    """
    if form_cache is not None:
        return form_cache.sweep_solutions(
            formulation, context, parametric, rhs_values, backend
        )
    return backend.solve_batch(parametric, rhs_values)


class Planner(Protocol):
    """Anything that turns a planning context into a query plan."""

    name: str

    def plan(self, context: PlanningContext) -> QueryPlan:
        """Produce a plan whose static cost respects the budget."""
        ...  # pragma: no cover - protocol definition


def observed(plan_method):
    """Wrap a planner's ``plan`` so instrumented contexts measure it.

    With ``context.instrumentation`` unset the original method runs
    bare (no spans, no allocations); otherwise the build runs in a
    ``plan`` span, whose duration feeds ``plan.build_seconds.<planner>``
    and which gains the plan's ``edges_used``, ``static_cost_mj`` and
    ``budget_mj`` attributes after it exits.
    """

    @functools.wraps(plan_method)
    def wrapper(self, context: PlanningContext) -> QueryPlan:
        obs = context.instrumentation
        if obs is None:
            return plan_method(self, context)
        with obs.span("plan", planner=self.name) as span:
            plan = plan_method(self, context)
        obs.record_plan_built(
            span,
            self.name,
            edges_used=len(plan.used_edges),
            static_cost_mj=context.plan_cost(plan),
            budget_mj=context.budget,
        )
        return plan

    return wrapper
