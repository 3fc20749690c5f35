"""Unit tests for LP expressions and variables."""

import pytest

from repro.errors import ModelError
from tests.lp._model_oracle import LinExpr, Model


@pytest.fixture
def model():
    return Model("t")


class TestVariable:
    def test_to_expr_single_term(self, model):
        x = model.add_variable("x")
        expr = x.to_expr()
        assert expr.terms == {0: 1.0}
        assert expr.constant == 0.0

    def test_duplicate_name_rejected(self, model):
        model.add_variable("x")
        with pytest.raises(ModelError, match="duplicate"):
            model.add_variable("x")

    def test_bad_bounds_rejected(self, model):
        with pytest.raises(ModelError, match="lb"):
            model.add_variable("x", lb=2.0, ub=1.0)

    def test_lookup_by_name(self, model):
        x = model.add_variable("x")
        assert model.variable("x") is x
        with pytest.raises(ModelError):
            model.variable("nope")

    def test_repr(self, model):
        assert "x" in repr(model.add_variable("x"))


class TestArithmetic:
    def test_addition_merges_terms(self, model):
        x, y = model.add_variables(["x", "y"])
        expr = x + y + x
        assert expr.terms == {0: 2.0, 1: 1.0}

    def test_scalar_multiplication(self, model):
        x = model.add_variable("x")
        expr = 3 * x
        assert expr.terms == {0: 3.0}
        assert (x * 3).terms == {0: 3.0}

    def test_subtraction_and_negation(self, model):
        x, y = model.add_variables(["x", "y"])
        expr = x - y
        assert expr.terms == {0: 1.0, 1: -1.0}
        assert (-x).terms == {0: -1.0}

    def test_rsub_with_constant(self, model):
        x = model.add_variable("x")
        expr = 5 - x
        assert expr.terms == {0: -1.0}
        assert expr.constant == 5.0

    def test_constants_accumulate(self, model):
        x = model.add_variable("x")
        expr = x + 1 + 2.5
        assert expr.constant == 3.5

    def test_sum_of_is_linear_time_shape(self, model):
        xs = model.add_variables([f"x{i}" for i in range(50)])
        expr = LinExpr.sum_of(xs)
        assert len(expr.terms) == 50
        assert all(c == 1.0 for c in expr.terms.values())

    def test_sum_of_mixed_items(self, model):
        x, y = model.add_variables(["x", "y"])
        expr = LinExpr.sum_of([x, 2.0 * y, 3, x + 1])
        assert expr.terms == {0: 2.0, 1: 2.0}
        assert expr.constant == 4.0

    def test_scaling_non_number_rejected(self, model):
        x = model.add_variable("x")
        with pytest.raises(TypeError):
            x.to_expr() * "two"

    def test_adding_junk_rejected(self, model):
        x = model.add_variable("x")
        with pytest.raises(TypeError):
            x.to_expr() + "junk"

    def test_mixing_models_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_variable("x")
        y = m2.add_variable("y")
        with pytest.raises(ModelError, match="different models"):
            __ = x + y

    def test_evaluate(self, model):
        x, y = model.add_variables(["x", "y"])
        expr = 2 * x - y + 1
        assert expr.evaluate([3.0, 4.0]) == pytest.approx(3.0)

    def test_copy_is_independent(self, model):
        x = model.add_variable("x")
        expr = x + 1
        clone = expr.copy()
        clone._iadd(x)
        assert expr.terms == {0: 1.0}


class TestComparisonsBuildConstraints:
    def test_le(self, model):
        x = model.add_variable("x")
        c = x <= 5
        assert c.sense == "<=" and c.rhs == 5.0

    def test_ge(self, model):
        x = model.add_variable("x")
        c = x >= 2
        assert c.sense == ">=" and c.rhs == 2.0

    def test_eq(self, model):
        x = model.add_variable("x")
        c = x.to_expr() == 7
        assert c.sense == "==" and c.rhs == 7.0

    def test_rhs_expression_folded_left(self, model):
        x, y = model.add_variables(["x", "y"])
        c = x + 1 <= y + 4
        assert c.expr.terms == {0: 1.0, 1: -1.0}
        assert c.rhs == pytest.approx(3.0)

    def test_is_satisfied(self, model):
        x, y = model.add_variables(["x", "y"])
        c = x + y <= 3
        assert c.is_satisfied([1.0, 1.0])
        assert not c.is_satisfied([2.0, 2.0])
        eq = x.to_expr() == 1
        assert eq.is_satisfied([1.0, 0.0])
        assert not eq.is_satisfied([1.1, 0.0])
        ge = x >= 1
        assert ge.is_satisfied([1.0, 0.0])
        assert not ge.is_satisfied([0.5, 0.0])
