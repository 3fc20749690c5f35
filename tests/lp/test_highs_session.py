"""Differential test: the HiGHS session backend equals ``linprog``.

:class:`repro.lp.ScipyBackend` drives HiGHS through scipy's binding
directly: one loaded model per call, re-run cold per ladder member.
``scipy.optimize.linprog(method="highs")`` is the oracle it must
reproduce *bitwise* — values, objective, iteration count and
inequality duals compared with ``np.array_equal`` / ``==`` — and on
failure the same :class:`~repro.errors.SolverError` status.  This is
the test that catches a scipy upgrade changing the binding's
behaviour.

``linprog`` rejects an infinite ``b_ub`` entry outright, while HiGHS
reads any bound at or beyond its ``infinite_bound`` option (1e20) as
infinite.  The oracle therefore hands ``linprog`` ±1e20 where the form
holds ±inf: HiGHS sees the same problem either way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.lp import CompiledLP, ParametricForm, ScipyBackend, StandardForm
from repro.lp.scipy_backend import _HighsSession
from tests.lp._model_oracle import compile_model, model_duals
from tests.lp.test_backends_property import random_lp
from tests.lp.test_fastbuild import make_context
from tests.lp.test_parametric import _budgets, _parametric_for

_HIGHS_INFINITE_BOUND = 1e20

# linprog's documented exit codes
_ORACLE_STATUS = {
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


def _oracle(form: StandardForm, model=None):
    """``linprog``'s answer for ``form``: a status string on failure,
    else ``(values, objective, iterations, inequality_duals)``."""
    b_ub = np.where(
        np.isinf(form.b_ub),
        np.sign(form.b_ub) * _HIGHS_INFINITE_BOUND,
        form.b_ub,
    )
    result = linprog(
        form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=form.a_eq if form.a_eq.shape[0] else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=form.bounds,
        method="highs",
    )
    if not result.success:
        return _ORACLE_STATUS.get(result.status, "error")
    duals = form.report_duals(result.ineqlin.marginals)
    return (
        np.asarray(result.x, dtype=float),
        form.report_objective(float(result.fun)),
        int(result.nit),
        duals if model is None else model_duals(duals, model),
    )


def _assert_matches(solution, expected) -> None:
    values, objective, iterations, duals = expected
    assert np.array_equal(solution.values, values)
    assert solution.objective == objective
    assert solution.stats.iterations == iterations
    assert np.array_equal(solution.inequality_duals, duals)


def _assert_ladder_matches(solve, expectations) -> None:
    """A ladder call either matches every member, or raises with the
    status of the first member the oracle could not solve."""
    failures = [e for e in expectations if isinstance(e, str)]
    if failures:
        with pytest.raises(SolverError) as err:
            solve()
        assert err.value.status == failures[0]
        return
    solutions = solve()
    assert len(solutions) == len(expectations)
    for solution, expected in zip(solutions, expectations):
        _assert_matches(solution, expected)


_RHS_CODES = st.integers(min_value=0, max_value=11)


def _rhs(draw) -> float:
    """Mostly small integers, sometimes +inf or -inf."""
    code = draw(_RHS_CODES)
    if code == 0:
        return np.inf
    if code == 1:
        return -np.inf
    return float(draw(st.integers(min_value=-10, max_value=20)))


def _bound(draw) -> tuple[float | None, float | None]:
    lower = draw(st.one_of(st.none(), st.integers(min_value=-3, max_value=1)))
    if draw(st.booleans()):
        return (None if lower is None else float(lower), None)
    base = -3 if lower is None else lower
    upper = base + draw(st.integers(min_value=0, max_value=5))
    return (None if lower is None else float(lower), float(upper))


@st.composite
def random_forms(draw):
    """Small LPs: ``<=`` and ``==`` rows, free and one-sided bounds,
    ±inf RHS entries; infeasible and unbounded ones included."""
    n = draw(st.integers(min_value=1, max_value=5))
    m_ub = draw(st.integers(min_value=0, max_value=4))
    m_eq = draw(st.integers(min_value=0, max_value=2))
    coeff = st.integers(min_value=-4, max_value=4)

    def matrix(rows):
        dense = np.array(
            [[draw(coeff) for __ in range(n)] for __ in range(rows)],
            dtype=float,
        ).reshape(rows, n)
        return sparse.csr_matrix(dense)

    a_ub, a_eq = matrix(m_ub), matrix(m_eq)
    b_ub = np.array([_rhs(draw) for __ in range(m_ub)], dtype=float)
    b_eq = np.array(
        [float(draw(st.integers(min_value=-6, max_value=6)))
         for __ in range(m_eq)],
        dtype=float,
    )
    return StandardForm(
        c=np.array([draw(coeff) for __ in range(n)], dtype=float),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=[_bound(draw) for __ in range(n)],
        objective_constant=float(draw(st.integers(-3, 3))),
        maximize=draw(st.booleans()),
    )


def _parametric(form: StandardForm) -> ParametricForm:
    """The form as a ladder over its last ``<=`` row, like PROSPECTOR's
    budget row."""
    compiled = CompiledLP(
        name="random",
        form=form,
        column_names=[f"x{i}" for i in range(form.num_variables)],
        primary_columns={},
    )
    return ParametricForm(
        compiled=compiled, row=form.a_ub.shape[0] - 1, rhs_of=float
    )


class TestRandomLPs:
    @settings(max_examples=200, deadline=None)
    @given(random_forms())
    def test_solve_form_matches_linprog(self, form):
        expected = _oracle(form)
        if isinstance(expected, str):
            with pytest.raises(SolverError) as err:
                ScipyBackend().solve_form(form, "random")
            assert err.value.status == expected
        else:
            _assert_matches(ScipyBackend().solve_form(form, "random"), expected)

    @settings(max_examples=120, deadline=None)
    @given(random_lp())
    def test_model_solve_matches_linprog(self, model):
        """The oracle's algebraic entry, whose duals are re-oriented per
        row."""
        expected = _oracle(compile_model(model), model)
        if isinstance(expected, str):
            with pytest.raises(SolverError) as err:
                model.solve(ScipyBackend())
            assert err.value.status == expected
        else:
            _assert_matches(model.solve(ScipyBackend()), expected)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(random_forms().filter(lambda f: f.a_ub.shape[0] > 0), st.data())
    def test_ladders_match_independent_linprog_solves(self, form, data):
        """One session re-solved per member equals a fresh ``linprog``
        per member."""
        parametric = _parametric(form)
        size = data.draw(st.integers(min_value=1, max_value=4))
        ladder = [_rhs(data.draw) for __ in range(size)]
        members = [parametric.form_for_rhs(rhs) for rhs in ladder]
        backend = ScipyBackend()
        plain = [_oracle(member) for member in members]
        _assert_ladder_matches(
            lambda: backend.solve_batch(parametric, ladder), plain
        )


class TestProspectorLadders:
    @pytest.mark.parametrize("planner_key", ["lp-lf", "lp-no-lf", "proof"])
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=8, max_value=60),
        k=st.integers(min_value=2, max_value=6),
    )
    def test_every_member_matches_linprog(self, planner_key, seed, n, k):
        context = make_context(seed, n, 8, k, planner_key=planner_key)
        parametric = _parametric_for(planner_key, context)
        ladder = parametric.rhs_values(_budgets(context))
        expected = [_oracle(parametric.form_for_rhs(rhs)) for rhs in ladder]
        backend = ScipyBackend()
        _assert_ladder_matches(
            lambda: backend.solve_batch(parametric, ladder), expected
        )
        _assert_ladder_matches(
            lambda: [
                backend.solve_form(parametric.form_for_rhs(rhs), "cold")
                for rhs in ladder
            ],
            expected,
        )


class TestFeasibilityCheck:
    """``linprog``'s post-solve check is kept: an "optimal" point that
    violates the form beyond tolerance is a numerical failure."""

    # min -x - y  s.t.  x + y <= 4,  x - y == 0,  0 <= x <= 3, y >= 0
    FORM = StandardForm(
        c=np.array([-1.0, -1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_ub=np.array([4.0]),
        a_eq=sparse.csr_matrix(np.array([[1.0, -1.0]])),
        b_eq=np.array([0.0]),
        bounds=[(0.0, 3.0), (0.0, None)],
        objective_constant=0.0,
        maximize=False,
    )

    def _solve(self, perturb):
        """Solve FORM through the backend with its raw run perturbed
        before the check sees it."""
        def solve():
            run = _HighsSession(self.FORM).solve()
            assert run.status == "optimal"
            return perturb(run)

        return ScipyBackend()._solve_member(self.FORM, "lp", solve)

    def test_optimal_solution_passes(self):
        solution = self._solve(lambda run: run)
        assert np.array_equal(solution.values, [2.0, 2.0])

    @pytest.mark.parametrize("perturb", [
        lambda r: r._replace(x=r.x + np.array([1.5, 0.0])),  # x0 > 3
        lambda r: r._replace(x=r.x - np.array([0.0, 3.0])),  # y < 0
        lambda r: r._replace(slack=r.slack - 1e-3),
        lambda r: r._replace(con=r.con + 1e-3),
        lambda r: r._replace(con=r.con - 1e-3),
        lambda r: r._replace(x=np.array([np.nan, 2.0])),
        lambda r: r._replace(fun=float("nan")),
    ], ids=[
        "above-upper", "below-lower", "negative-slack", "residual-positive",
        "residual-negative", "nan-x", "nan-objective",
    ])
    def test_perturbed_solution_is_numerical(self, perturb):
        with pytest.raises(SolverError) as err:
            self._solve(perturb)
        assert err.value.status == "numerical"

    def test_within_tolerance_passes(self):
        self._solve(
            lambda r: r._replace(slack=r.slack - 1e-5, con=r.con + 1e-5)
        )
