"""Unit tests for the LP model container of the algebraic oracle."""

import pytest

from repro.errors import ModelError, SolverError
from tests.lp._model_oracle import Model


class TestModelBasics:
    def test_counts(self):
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + y <= 1)
        assert m.num_variables == 2
        assert m.num_constraints == 1

    def test_constraint_naming(self):
        m = Model()
        x = m.add_variable("x")
        c = m.add_constraint(x <= 1, name="cap")
        assert c.name == "cap"

    def test_add_constraint_rejects_non_constraint(self):
        m = Model()
        with pytest.raises(ModelError, match="Constraint"):
            m.add_constraint(True)  # 1 <= 2 evaluates to a bool

    def test_objective_required_to_solve(self):
        m = Model()
        m.add_variable("x")
        with pytest.raises(ModelError, match="objective"):
            m.solve()

    def test_objective_accepts_variable_and_scalar(self):
        m = Model()
        x = m.add_variable("x", ub=2.0)
        m.maximize(x)
        assert m.solve().objective == pytest.approx(2.0)
        m.minimize(0)
        assert m.solve().objective == pytest.approx(0.0)

    def test_foreign_expression_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_variable("x")
        with pytest.raises(ModelError, match="belongs"):
            m2.add_constraint(x <= 1)
        with pytest.raises(ModelError, match="belongs"):
            m2.minimize(x + 0)

    def test_repr_mentions_shape(self):
        m = Model("demo")
        m.add_variable("x")
        assert "demo" in repr(m) and "vars=1" in repr(m)


class TestSolving:
    def test_simple_maximization(self):
        m = Model()
        x = m.add_variable("x", lb=0, ub=4)
        y = m.add_variable("y", lb=0, ub=4)
        m.add_constraint(x + y <= 6)
        m.maximize(2 * x + y)
        sol = m.solve()
        assert sol.objective == pytest.approx(10.0)
        assert sol.value(x) == pytest.approx(4.0)
        assert sol.value(y) == pytest.approx(2.0)
        assert sol[x] == pytest.approx(4.0)

    def test_objective_constant_is_reported(self):
        m = Model()
        x = m.add_variable("x", ub=1.0)
        m.maximize(x + 10)
        assert m.solve().objective == pytest.approx(11.0)

    def test_expression_value_from_solution(self):
        m = Model()
        x = m.add_variable("x", ub=3.0)
        m.maximize(x)
        sol = m.solve()
        assert sol.value(2 * x + 1) == pytest.approx(7.0)

    def test_infeasible_raises(self):
        m = Model()
        x = m.add_variable("x", lb=0.0)
        m.add_constraint(x <= -1)
        m.minimize(x)
        with pytest.raises(SolverError) as err:
            m.solve()
        assert err.value.status == "infeasible"

    def test_unbounded_raises(self):
        m = Model()
        x = m.add_variable("x", lb=0.0)
        m.maximize(x)
        with pytest.raises(SolverError):
            m.solve()

    def test_equality_constraints(self):
        m = Model()
        x, y = m.add_variables(["x", "y"])
        m.add_constraint(x + y == 4)
        m.add_constraint(x - y == 2)
        m.minimize(x + y)
        sol = m.solve()
        assert sol.value(x) == pytest.approx(3.0)
        assert sol.value(y) == pytest.approx(1.0)

    def test_solution_satisfies_all_constraints(self):
        m = Model()
        x, y, z = m.add_variables(["x", "y", "z"])
        m.add_constraint(x + 2 * y + z <= 10)
        m.add_constraint(x - y >= -2)
        m.add_constraint(y + z == 5)
        m.maximize(x + y + z)
        sol = m.solve()
        for constraint in m.constraints:
            assert constraint.is_satisfied(sol.values)

    def test_stats_populated(self):
        m = Model()
        x = m.add_variable("x", ub=1.0)
        m.maximize(x)
        sol = m.solve()
        assert sol.stats.backend == "scipy-highs"
        assert sol.stats.num_variables == 1
        assert sol.stats.wall_seconds >= 0.0
