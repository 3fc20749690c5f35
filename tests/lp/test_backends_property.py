"""Property test: HiGHS and the simplex oracle agree on random LPs.

This is the cross-check that justifies trusting the production HiGHS
backend for every PROSPECTOR formulation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.lp import ScipyBackend
from tests.lp._model_oracle import Model
from tests.lp._simplex_oracle import SimplexBackend


@st.composite
def random_lp(draw):
    """Small random LPs with bounded variables (always feasible at 0
    relative to their bounds and never unbounded above)."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    num_cons = draw(st.integers(min_value=0, max_value=4))
    coeff = st.integers(min_value=-4, max_value=4)

    m = Model("random")
    xs = []
    for i in range(num_vars):
        lb = draw(st.integers(min_value=-3, max_value=1))
        ub = lb + draw(st.integers(min_value=0, max_value=5))
        xs.append(m.add_variable(f"x{i}", lb=float(lb), ub=float(ub)))

    for __ in range(num_cons):
        weights = [draw(coeff) for __ in xs]
        expr = sum(w * x for w, x in zip(weights, xs) if w) if any(weights) else None
        if expr is None:
            continue
        sense = draw(st.sampled_from(["<=", ">="]))
        rhs = draw(st.integers(min_value=-10, max_value=20))
        m.add_constraint(expr <= rhs if sense == "<=" else expr >= rhs)

    objective = sum(draw(coeff) * x for x in xs)
    if draw(st.booleans()):
        m.maximize(objective)
    else:
        m.minimize(objective)
    return m


@settings(max_examples=120, deadline=None)
@given(random_lp())
def test_backends_agree(model):
    try:
        reference = model.solve(ScipyBackend())
    except SolverError as err:
        # infeasible LP: the simplex must agree it is infeasible
        with pytest.raises(SolverError):
            model.solve(SimplexBackend())
        assert err.status in {"infeasible", "unbounded", "numerical"}
        return
    ours = model.solve(SimplexBackend())
    assert ours.objective == pytest.approx(reference.objective, abs=1e-6)
    # both solutions must satisfy every constraint and bound
    for solution in (reference, ours):
        for constraint in model.constraints:
            assert constraint.is_satisfied(solution.values, tol=1e-6)
        for var in model.variables:
            value = solution.values[var.index]
            if var.lb is not None:
                assert value >= var.lb - 1e-6
            if var.ub is not None:
                assert value <= var.ub + 1e-6
