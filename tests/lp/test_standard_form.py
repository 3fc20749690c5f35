"""Unit tests for the model -> standard-form compiler."""

import numpy as np
import pytest

from tests.lp._model_oracle import Model, compile_model


def test_senses_routed_to_correct_blocks():
    m = Model()
    x, y = m.add_variables(["x", "y"])
    m.add_constraint(x + y <= 3)
    m.add_constraint(x - y >= 1)
    m.add_constraint(x + 2 * y == 5)
    m.minimize(x)
    form = compile_model(m)
    assert form.a_ub.shape == (2, 2)
    assert form.a_eq.shape == (1, 2)
    # the >= row is negated into <=
    np.testing.assert_allclose(form.a_ub.toarray()[1], [-1.0, 1.0])
    assert form.b_ub[1] == pytest.approx(-1.0)
    np.testing.assert_allclose(form.a_eq.toarray()[0], [1.0, 2.0])


def test_maximize_negates_costs_and_reports_back():
    m = Model()
    x = m.add_variable("x", ub=2.0)
    m.maximize(3 * x + 1)
    form = compile_model(m)
    assert form.maximize
    np.testing.assert_allclose(form.c, [-3.0])
    # minimized value of -3x at x=2 is -6; reported = -(-6 + -1) = 7
    assert form.report_objective(-6.0) == pytest.approx(7.0)


def test_bounds_passed_through():
    m = Model()
    m.add_variable("a")                 # [0, None]
    m.add_variable("b", lb=None)        # free
    m.add_variable("c", lb=-1, ub=2)
    m.minimize(0)
    form = compile_model(m)
    assert form.bounds == [(0.0, None), (None, None), (-1, 2)]


def test_empty_constraint_blocks():
    m = Model()
    x = m.add_variable("x", ub=1.0)
    m.minimize(x)
    form = compile_model(m)
    assert form.a_ub.shape[0] == 0
    assert form.a_eq.shape[0] == 0
    assert form.num_variables == 1


def test_minimize_reports_constant():
    m = Model()
    x = m.add_variable("x", ub=1.0)
    m.minimize(x + 5)
    form = compile_model(m)
    assert not form.maximize
    assert form.report_objective(0.0) == pytest.approx(5.0)
