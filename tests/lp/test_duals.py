"""Tests for LP dual values (shadow prices)."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp import Model, ScipyBackend, SimplexBackend


def solve_with_budget(capacity):
    # non-degenerate: the optimum is the interior vertex of the two
    # rows, no variable bound binds, so the duals are unique
    m = Model()
    x = m.add_variable("x", ub=100.0)
    y = m.add_variable("y", ub=100.0)
    budget = m.add_constraint(2 * x + y <= capacity, name="budget")
    m.add_constraint(x + 3 * y <= 15)
    m.maximize(5 * x + 4 * y)
    return m, budget, m.solve()


class TestDuals:
    def test_budget_shadow_price_matches_finite_difference(self):
        m, budget, sol = solve_with_budget(10.0)
        price = sol.dual_of(m, budget)
        __, __, bumped = solve_with_budget(10.0 + 1e-3)
        finite_diff = (bumped.objective - sol.objective) / 1e-3
        assert price == pytest.approx(finite_diff, abs=1e-6)
        assert price > 0  # more budget helps a maximization

    def test_slack_constraint_has_zero_price(self):
        m = Model()
        x = m.add_variable("x", ub=1.0)
        tight = m.add_constraint(x <= 1.0, name="tight")
        loose = m.add_constraint(x <= 100.0, name="loose")
        m.maximize(x)
        sol = m.solve()
        assert sol.dual_of(m, loose) == pytest.approx(0.0)

    def test_ge_constraint_sign_convention(self):
        # forcing x >= floor on a minimization: raising the floor raises
        # the objective, so d(obj)/d(rhs) is positive
        m = Model()
        x = m.add_variable("x", ub=100.0)
        floor = m.add_constraint(x >= 3.0, name="floor")
        m.minimize(x)
        sol = m.solve()
        assert sol.value(x) == pytest.approx(3.0)
        assert sol.dual_of(m, floor) == pytest.approx(1.0)

    def test_equality_constraints_rejected(self):
        m = Model()
        x = m.add_variable("x")
        eq = m.add_constraint(x.to_expr() == 5.0)
        m.minimize(x)
        sol = m.solve()
        with pytest.raises(SolverError, match="inequality"):
            sol.dual_of(m, eq)

    def test_simplex_backend_returns_duals(self):
        """Revised simplex yields ``y = c_B B^-T`` for free, so the
        cross-check backend is no longer HiGHS-only for shadow prices."""
        m, budget, __ = solve_with_budget(10.0)
        sol = m.solve(SimplexBackend())
        assert sol.inequality_duals is not None
        assert sol.dual_of(m, budget) == pytest.approx(2.2)

    def test_planner_budget_shadow_price(self):
        """The practical use: marginal accuracy per mJ of budget."""
        from repro.network.builder import star_topology
        from repro.network.energy import EnergyModel
        from repro.planners.base import PlanningContext
        from repro.sampling.matrix import SampleMatrix
        from tests.lp._algebraic_oracle import build_lp_no_lf_model

        topo = star_topology(6)
        rng = np.random.default_rng(0)
        samples = SampleMatrix(rng.normal(10, 3, size=(10, 6)), 3)
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.1)
        context = PlanningContext(topo, energy, samples, 3, budget=2.0)
        model, __, __ = build_lp_no_lf_model(context)
        budget_row = next(c for c in model.constraints if c.name == "budget")
        sol = model.solve()
        price = sol.dual_of(model, budget_row)
        assert price >= 0  # extra budget never hurts coverage


class TestCrossBackendDuals:
    """The two backends must agree on shadow prices wherever the dual
    solution is unique (non-degenerate optima); dual-degenerate rows of
    the planner LPs are legitimately backend-dependent and not compared.
    """

    def test_budget_model_duals_agree(self):
        m, budget, __ = solve_with_budget(10.0)
        ours = m.solve(SimplexBackend())
        reference = m.solve(ScipyBackend())
        np.testing.assert_allclose(
            ours.inequality_duals, reference.inequality_duals, atol=1e-6
        )
        assert ours.dual_of(m, budget) == pytest.approx(
            reference.dual_of(m, budget), abs=1e-6
        )

    def test_ge_row_orientation_agrees(self):
        m = Model()
        x = m.add_variable("x", ub=100.0)
        floor = m.add_constraint(x >= 3.0, name="floor")
        m.minimize(x)
        ours = m.solve(SimplexBackend())
        reference = m.solve(ScipyBackend())
        assert ours.dual_of(m, floor) == pytest.approx(1.0, abs=1e-6)
        assert reference.dual_of(m, floor) == pytest.approx(1.0, abs=1e-6)

    def test_maximization_sign_agrees(self):
        m = Model()
        x = m.add_variable("x", ub=4.0)
        y = m.add_variable("y", ub=4.0)
        cap = m.add_constraint(x + y <= 5.0, name="cap")
        m.maximize(3 * x + y)
        ours = m.solve(SimplexBackend())
        reference = m.solve(ScipyBackend())
        assert ours.dual_of(m, cap) == pytest.approx(
            reference.dual_of(m, cap), abs=1e-6
        )
        assert ours.dual_of(m, cap) > 0

    def test_planner_budget_row_agrees(self):
        from tests.lp._algebraic_oracle import build_lp_no_lf_model
        from tests.lp.test_fastbuild import make_context

        context = make_context(5, 12, 8, 4, planner_key="lp-no-lf")
        model, __, __ = build_lp_no_lf_model(context)
        budget_row = next(
            c for c in model.constraints if c.name == "budget"
        )
        ours = model.solve(SimplexBackend())
        reference = model.solve(ScipyBackend())
        assert ours.dual_of(model, budget_row) == pytest.approx(
            reference.dual_of(model, budget_row), abs=1e-6
        )
