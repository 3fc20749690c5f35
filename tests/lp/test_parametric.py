"""Parametric sweep equivalence: one compile, many budgets.

The contract of :class:`repro.lp.ParametricForm` and ``solve_batch``
is element-wise agreement with the cold path: a patched form must be
*bitwise* identical to a fresh compile at that budget, and a swept
solve must match independent cold solves — objectives to 1e-9 and
plans exactly equal after rounding.  (Raw variable vectors are a
solver-internal detail; the simplex tie-break pricing makes them agree
in practice, but the contract is stated over objectives and plans.)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.lp import (
    ScipyBackend,
    SimplexBackend,
    compile_lp_lf,
    compile_lp_no_lf,
    compile_lp_lf_parametric,
    compile_lp_no_lf_parametric,
    compile_proof_parametric,
)
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from tests.lp.test_fastbuild import make_context

# Proof budgets must stay above the minimum certified cost (the context
# budget is minimum * 1.5), so the ladder keeps every factor >= 0.7.
_FACTORS = (0.7, 0.85, 1.0, 1.2, 1.5, 2.0)


def _parametric_for(planner_key, context):
    if planner_key == "proof":
        planner = ProofPlanner()
        reserve = planner._reserve(context)
        acquisition = planner._acquisition_total(context)
        return compile_proof_parametric(
            context,
            budget_rhs_of=lambda budget: budget - reserve - acquisition,
        )
    if planner_key == "lp-lf":
        return compile_lp_lf_parametric(context)
    return compile_lp_no_lf_parametric(context)


def _cold_compile(planner_key, context):
    if planner_key == "proof":
        return ProofPlanner().compile_fast(context)
    if planner_key == "lp-lf":
        return compile_lp_lf(context)
    return compile_lp_no_lf(context)


def _budgets(context):
    return [context.budget * factor for factor in _FACTORS]


class TestParametricForm:
    @pytest.mark.parametrize("planner_key", ["lp-no-lf", "lp-lf", "proof"])
    @pytest.mark.parametrize("seed,n,m,k", [(0, 8, 5, 3), (1, 14, 8, 4)])
    def test_patched_form_bitwise_equals_cold_compile(
        self, planner_key, seed, n, m, k
    ):
        context = make_context(seed, n, m, k, planner_key=planner_key)
        parametric = _parametric_for(planner_key, context)
        for budget in _budgets(context):
            patched = parametric.form_for(budget)
            cold = _cold_compile(
                planner_key, replace(context, budget=budget)
            ).form
            assert np.array_equal(patched.c, cold.c)
            assert np.array_equal(patched.b_ub, cold.b_ub)
            assert np.array_equal(patched.b_eq, cold.b_eq)
            assert patched.bounds == cold.bounds
            assert np.array_equal(patched.a_ub.indptr, cold.a_ub.indptr)
            assert np.array_equal(patched.a_ub.indices, cold.a_ub.indices)
            assert np.array_equal(patched.a_ub.data, cold.a_ub.data)

    def test_only_the_rhs_slot_changes(self):
        context = make_context(2, 10, 6, 3)
        parametric = compile_lp_lf_parametric(context)
        base = parametric.form.b_ub.copy()
        patched = parametric.form_for(context.budget * 1.7)
        delta = np.flatnonzero(patched.b_ub != base)
        assert list(delta) == [parametric.row]

    def test_rhs_values_match_form_for(self):
        context = make_context(3, 9, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        budgets = _budgets(context)
        rhs = parametric.rhs_values(budgets)
        for value, budget in zip(rhs, budgets):
            assert value == parametric.form_for(budget).b_ub[parametric.row]


class TestSweepEquivalence:
    """Property sweep over random topologies: ``plan_for_budgets`` must
    be element-wise identical to per-budget cold planning, on every
    formulation and both backends."""

    PLANNERS = {
        "lp-no-lf": LPNoLFPlanner,
        "lp-lf": LPLFPlanner,
        "proof": ProofPlanner,
    }

    @pytest.mark.parametrize("backend", ["simplex", "scipy"])
    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    @pytest.mark.parametrize("seed,n,m,k", [
        (0, 6, 4, 2),
        (1, 12, 6, 3),
        (2, 18, 9, 5),
        (3, 30, 10, 10),
    ])
    def test_sweep_plans_equal_cold_plans(
        self, backend, planner_key, seed, n, m, k
    ):
        context = make_context(seed, n, m, k, planner_key=planner_key)
        budgets = _budgets(context)
        cls = self.PLANNERS[planner_key]
        swept = cls(backend=backend).plan_for_budgets(context, budgets)
        assert len(swept) == len(budgets)
        for budget, sweep_plan in zip(budgets, swept):
            cold_plan = cls(backend=backend).plan(
                replace(context, budget=budget)
            )
            assert sweep_plan.bandwidths == cold_plan.bandwidths

    @pytest.mark.parametrize("backend_cls", [SimplexBackend, ScipyBackend])
    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    def test_sweep_objectives_match_cold_solves(self, backend_cls, planner_key):
        context = make_context(4, 16, 8, 5, planner_key=planner_key)
        budgets = _budgets(context)
        backend = backend_cls()
        parametric = _parametric_for(planner_key, context)
        members = backend.solve_batch(
            parametric, parametric.rhs_values(budgets)
        )
        for budget, member in zip(budgets, members):
            cold = _cold_compile(planner_key, replace(context, budget=budget))
            reference = backend.solve_form(cold.form, cold.name)
            assert member.objective == pytest.approx(
                reference.objective, abs=1e-9 * max(1.0, abs(reference.objective))
            )


class TestSweepStats:
    def test_simplex_members_report_warm_starts(self):
        context = make_context(6, 14, 8, 4)
        backend = SimplexBackend()
        parametric = compile_lp_lf_parametric(context)
        members = backend.solve_batch(
            parametric, parametric.rhs_values(_budgets(context))
        )
        assert members[0].stats.warm_started is False
        assert any(m.stats.warm_started for m in members[1:])
        assert all(m.stats.pivots >= 0 for m in members)
        assert all(m.stats.backend == "pure-simplex" for m in members)

    def test_scipy_members_are_never_warm(self):
        context = make_context(6, 14, 8, 4)
        backend = ScipyBackend()
        parametric = compile_lp_lf_parametric(context)
        members = backend.solve_batch(
            parametric, parametric.rhs_values(_budgets(context))
        )
        assert all(m.stats.warm_started is False for m in members)
