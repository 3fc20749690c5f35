"""Budget ladders: ``solve_batch`` equals per-member cold solves.

For every formulation and both backends, a ladder solve must agree
with independent per-member solves — objectives to 1e-9 relative,
variable vectors exactly equal after the 1e-9 value rounding, and
budget-row duals agreeing across backends.  The simplex oracle solves
a ladder with dual-simplex warm restarts; the HiGHS ladder records the
``lp.batch.*`` counters and one ``lp_batch`` event.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import (
    ScipyBackend,
    compile_lp_lf_parametric,
    compile_lp_no_lf_parametric,
    compile_proof_parametric,
)
from repro.obs import Instrumentation
from repro.planners.proof import ProofPlanner
from repro.service.cache import SharedPlanCache
from tests.lp._simplex_oracle import SimplexBackend
from tests.lp.test_fastbuild import make_context

_FACTORS = np.linspace(0.7, 2.4, 16)


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


def _ladder(context, parametric):
    budgets = [context.budget * float(f) for f in _FACTORS]
    return parametric.rhs_values(budgets)


class TestBatchEquivalence:
    @pytest.mark.parametrize("planner_key", ["lp-no-lf", "lp-lf", "proof"])
    @pytest.mark.parametrize("seed,n,m,k", [(0, 10, 5, 3), (1, 16, 7, 4)])
    def test_lockstep_matches_per_member_cold_solves(
        self, planner_key, seed, n, m, k
    ):
        """The simplex oracle's warm ladder equals a cold solve per
        member."""
        context = make_context(seed, n, m, k, planner_key=planner_key)
        parametric = _parametric_for(planner_key, context)
        rhs = _ladder(context, parametric)
        backend = SimplexBackend()
        batch = backend.solve_batch(parametric, rhs)
        assert len(batch) == len(rhs)
        for value, member in zip(rhs, batch):
            cold = backend.solve_form(
                parametric.form_for_rhs(float(value)), parametric.name
            )
            scale = max(1.0, abs(cold.objective))
            assert member.objective == pytest.approx(
                cold.objective, abs=1e-9 * scale
            )
            assert np.array_equal(
                np.round(member.values, 9), np.round(cold.values, 9)
            )

    @pytest.mark.parametrize("planner_key", ["lp-no-lf", "lp-lf", "proof"])
    def test_backends_agree_on_objectives_and_duals(self, planner_key):
        context = make_context(3, 12, 6, 3, planner_key=planner_key)
        parametric = _parametric_for(planner_key, context)
        rhs = _ladder(context, parametric)
        simplex = SimplexBackend().solve_batch(parametric, rhs)
        scipy = ScipyBackend().solve_batch(parametric, rhs)
        row = parametric.row
        for a, b in zip(simplex, scipy):
            scale = max(1.0, abs(b.objective))
            assert a.objective == pytest.approx(b.objective, abs=1e-7 * scale)
            # the budget-row shadow price is the quantity downstream
            # planners consume; dual degeneracy can move other rows
            assert a.inequality_duals is not None
            assert b.inequality_duals is not None
            assert float(a.inequality_duals[row]) == pytest.approx(
                float(b.inequality_duals[row]), abs=1e-6 * scale
            )

    def test_rhs_ladders_stay_on_the_warm_restart_path(self):
        # RHS-only ladders keep dual warm restarts regardless of length:
        # a later member restarts from the previous optimal basis
        context = make_context(5, 14, 6, 4)
        parametric = compile_lp_lf_parametric(context)
        for budgets in (
            [context.budget * f for f in (0.8, 1.0, 1.3, 1.7)],
            [context.budget * float(f) for f in _FACTORS],
        ):
            members = SimplexBackend().solve_batch(
                parametric, parametric.rhs_values(budgets)
            )
            assert any(m.stats.warm_started for m in members[1:])


class TestBatchTelemetry:
    def test_scipy_batch_records_counters(self):
        obs = Instrumentation()
        context = make_context(7, 10, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        rhs = _ladder(context, parametric)
        ScipyBackend(instrumentation=obs).solve_batch(parametric, rhs)
        assert obs.counter("lp.batch.solves").value == 1
        assert obs.counter("lp.batch.members").value == len(rhs)
        (batch,) = obs.spans.find("batch.solve")
        assert batch.attributes["members"] == len(rhs)
        hist = obs.histogram("lp.batch.seconds.prospector-lp-no-lf")
        assert (hist.count, hist.total) == (1, batch.duration_s)


class TestSharedSweepCache:
    def test_equal_ladders_solve_once(self):
        cache = SharedPlanCache()
        context = make_context(8, 10, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        rhs = _ladder(context, parametric)
        backend = SimplexBackend()
        first = cache.sweep_solutions(
            "lp-no-lf", context, parametric, rhs, backend
        )
        second = cache.sweep_solutions(
            "lp-no-lf", context, parametric, rhs, backend
        )
        assert cache.sweep_misses == 1
        assert cache.sweep_hits == 1
        assert [m.objective for m in first] == [m.objective for m in second]
        stats = cache.stats()
        assert stats["sweep_entries"] == 1
        assert stats["sweep_hits"] == 1

    def test_different_ladders_miss(self):
        cache = SharedPlanCache()
        context = make_context(8, 10, 5, 3)
        parametric = compile_lp_no_lf_parametric(context)
        rhs = _ladder(context, parametric)
        backend = SimplexBackend()
        cache.sweep_solutions("lp-no-lf", context, parametric, rhs, backend)
        cache.sweep_solutions(
            "lp-no-lf", context, parametric, rhs * 1.1, backend
        )
        assert cache.sweep_misses == 2
        assert cache.sweep_hits == 0
