"""Unit tests for the pure-Python simplex oracle."""

import pytest

from repro.errors import SolverError
from repro.lp import ScipyBackend
from tests.lp._model_oracle import Model
from tests.lp._simplex_oracle import SimplexBackend


@pytest.fixture
def backend():
    return SimplexBackend()


@pytest.fixture(params=["pure-simplex", "scipy-highs"])
def any_backend(request):
    """Edge cases must behave identically on both backends."""
    if request.param == "pure-simplex":
        return SimplexBackend()
    return ScipyBackend()


class TestSimplexBasics:
    def test_textbook_maximization(self, backend):
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + 2 * y <= 14)
        m.add_constraint(3 * x - y >= 0)
        m.add_constraint(x - y <= 2)
        m.maximize(3 * x + 4 * y)
        sol = m.solve(backend)
        assert sol.objective == pytest.approx(34.0)
        assert sol.value(x) == pytest.approx(6.0)
        assert sol.value(y) == pytest.approx(4.0)

    def test_equality_constraints(self, backend):
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + y == 4)
        m.minimize(x - y)
        assert m.solve(backend).objective == pytest.approx(-4.0)

    def test_free_variables(self, backend):
        m = Model()
        a = m.add_variable("a", lb=None)
        b = m.add_variable("b", lb=None)
        m.add_constraint(a + b == 1)
        m.add_constraint(a - b == 5)
        m.minimize(a + b)
        sol = m.solve(backend)
        assert sol.value(a) == pytest.approx(3.0)
        assert sol.value(b) == pytest.approx(-2.0)

    def test_upper_bounded_variables(self, backend):
        m = Model()
        x = m.add_variable("x", lb=1.0, ub=2.5)
        m.maximize(x)
        assert m.solve(backend).objective == pytest.approx(2.5)

    def test_ub_only_variable(self, backend):
        m = Model()
        x = m.add_variable("x", lb=None, ub=3.0)
        m.maximize(x)
        assert m.solve(backend).objective == pytest.approx(3.0)

    def test_negative_bounds(self, backend):
        m = Model()
        x = m.add_variable("x", lb=-5.0, ub=-1.0)
        m.minimize(x)
        assert m.solve(backend).objective == pytest.approx(-5.0)

    def test_infeasible_detected(self, backend):
        m = Model()
        x = m.add_variable("x")
        m.add_constraint(x <= 1)
        m.add_constraint(x >= 2)
        m.minimize(x)
        with pytest.raises(SolverError) as err:
            m.solve(backend)
        assert err.value.status == "infeasible"

    def test_unbounded_detected(self, backend):
        m = Model()
        x = m.add_variable("x")
        m.maximize(x)
        with pytest.raises(SolverError) as err:
            m.solve(backend)
        assert err.value.status == "unbounded"

    def test_degenerate_lp_terminates(self, backend):
        # classic Beale-style cycling candidate; Bland's rule must finish
        m = Model()
        x1, x2, x3, x4 = m.add_variables(["x1", "x2", "x3", "x4"])
        m.add_constraint(0.5 * x1 - 5.5 * x2 - 2.5 * x3 + 9 * x4 <= 0)
        m.add_constraint(0.5 * x1 - 1.5 * x2 - 0.5 * x3 + x4 <= 0)
        m.add_constraint(x1 <= 1)
        m.maximize(10 * x1 - 57 * x2 - 9 * x3 - 24 * x4)
        sol = m.solve(backend)
        assert sol.objective == pytest.approx(1.0)

    def test_stats_backend_name(self, backend):
        m = Model()
        x = m.add_variable("x", ub=1.0)
        m.maximize(x)
        sol = m.solve(backend)
        assert sol.stats.backend == "pure-simplex"
        assert sol.stats.iterations >= 1

    def test_iteration_limit(self):
        tight = SimplexBackend(max_iterations=1)
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + y <= 10)
        m.add_constraint(x - y <= 3)
        m.maximize(x + 2 * y)
        with pytest.raises(SolverError):
            m.solve(tight)


class TestEdgeCasesBothBackends:
    """Behaviours the revised-simplex rewrite must preserve, checked
    against HiGHS on the same models."""

    def test_infeasible_needs_phase_one(self, any_backend):
        # the slack basis cannot satisfy x >= 2 under x <= 1, so the
        # simplex must go through phase 1 and report its residual
        m = Model()
        x = m.add_variable("x")
        m.add_constraint(x <= 1)
        m.add_constraint(x >= 2)
        m.minimize(x)
        with pytest.raises(SolverError) as err:
            m.solve(any_backend)
        assert err.value.status == "infeasible"

    def test_infeasible_equality_system(self, any_backend):
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + y == 1)
        m.add_constraint(x + y == 3)
        m.minimize(x)
        with pytest.raises(SolverError) as err:
            m.solve(any_backend)
        assert err.value.status == "infeasible"

    def test_unbounded(self, any_backend):
        m = Model()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x - y <= 1)
        m.maximize(x + y)
        with pytest.raises(SolverError) as err:
            m.solve(any_backend)
        assert err.value.status == "unbounded"

    def test_degenerate_ties(self, any_backend):
        # multiple constraints meet at the optimum with zero slack;
        # Beale's cycling candidate must still terminate at 1.0
        m = Model()
        x1, x2, x3, x4 = m.add_variables(["x1", "x2", "x3", "x4"])
        m.add_constraint(0.5 * x1 - 5.5 * x2 - 2.5 * x3 + 9 * x4 <= 0)
        m.add_constraint(0.5 * x1 - 1.5 * x2 - 0.5 * x3 + x4 <= 0)
        m.add_constraint(x1 <= 1)
        m.maximize(10 * x1 - 57 * x2 - 9 * x3 - 24 * x4)
        sol = m.solve(any_backend)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_free_variables(self, any_backend):
        m = Model()
        a = m.add_variable("a", lb=None)
        b = m.add_variable("b", lb=None)
        m.add_constraint(a + b == 1)
        m.add_constraint(a - b == 5)
        m.minimize(a + b)
        sol = m.solve(any_backend)
        assert sol.value(a) == pytest.approx(3.0, abs=1e-6)
        assert sol.value(b) == pytest.approx(-2.0, abs=1e-6)

    def test_free_variable_negative_optimum(self, any_backend):
        m = Model()
        x = m.add_variable("x", lb=None)
        m.add_constraint(x >= -7)
        m.minimize(x)
        assert m.solve(any_backend).objective == pytest.approx(-7.0, abs=1e-6)

    def test_redundant_equality_rows(self, any_backend):
        # the duplicated and scaled rows leave artificials pinned on
        # linearly dependent rows; the optimum must be unaffected
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + y == 4)
        m.add_constraint(x + y == 4)
        m.add_constraint(2 * x + 2 * y == 8)
        m.minimize(x - y)
        sol = m.solve(any_backend)
        assert sol.objective == pytest.approx(-4.0, abs=1e-6)
        assert sol.value(y) == pytest.approx(4.0, abs=1e-6)
