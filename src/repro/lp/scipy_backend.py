"""Production LP backend: HiGHS through scipy's own binding.

This stands in for the ILOG CPLEX 8.1 solver the paper used; the LPs
are identical, only the solver implementation differs.

Every entry point loads its compiled form into one HiGHS instance
(:class:`_HighsSession`) and re-runs it cold per member, patching only
the budget row in between.  The session feeds HiGHS exactly what
``scipy.optimize.linprog(method="highs")`` would — same matrix, bounds
and options — and applies the same post-solve feasibility check, so
the solutions are bitwise those of ``linprog``
(``tests/lp/test_highs_session.py`` keeps ``linprog`` as the oracle)
without its per-call validation and model hand-off.
"""

from __future__ import annotations

import time
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy import sparse

try:
    from scipy.optimize._highspy import _core as _highs
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
except ImportError as exc:  # pragma: no cover - depends on the install
    raise ImportError(
        "repro.lp.scipy_backend needs scipy >= 1.15, whose "
        "scipy.optimize._highspy binding it drives"
    ) from exc

from repro.errors import SolverError
from repro.lp.result import Solution, SolveStats
from repro.obs.spans import maybe_span

_STATUS_BY_CODE = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}

# linprog's default ``tol`` (1e-9), loosened as its ``_check_result`` does
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


def _replace_inf(values: np.ndarray) -> np.ndarray:
    """±inf → ±``kHighsInf``, as ``_linprog_highs`` prepares its arrays."""
    infs = np.isinf(values)
    values[infs] = np.sign(values[infs]) * _highs.kHighsInf
    return values


class _HighsRun(NamedTuple):
    """One member's raw outcome, in ``linprog``'s terms."""

    status: str
    message: str
    iterations: int
    x: np.ndarray | None = None
    fun: float | None = None
    slack: np.ndarray | None = None
    con: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


class _HighsSession:
    """One compiled form loaded into one HiGHS instance.

    The arrays are built and handed to HiGHS on the first
    :meth:`solve`, with that member's budget row already in place, so a
    caller that solves inside its ``solve`` span bills the whole set-up
    to the solve.  Each later solve patches the budget row (``row``),
    clears the previous solve's basis and solution, and runs cold.
    Warm restarts would be faster, but on 20 Fig-3 ladders they land on
    another optimal vertex in 236 of 280 members and change the rounded
    plan in 30, so ladders would stop matching independent solves.
    """

    def __init__(self, form, row: int | None = None) -> None:
        self.form = form
        self.row = row
        self.num_ub = form.a_ub.shape[0]
        self._highs = None

    def _load(self, rhs):
        """A HiGHS instance holding the form at this member, and its
        load status."""
        form = self.form
        n = form.num_variables
        bounds = np.array(form.bounds, dtype=float).reshape(-1, 2)
        bounds[np.isnan(bounds[:, 0]), 0] = -np.inf
        bounds[np.isnan(bounds[:, 1]), 1] = np.inf
        self.lower, self.upper = bounds.T.copy()
        self.row_upper = _replace_inf(
            np.concatenate((np.asarray(form.b_ub, dtype=float), form.b_eq))
        )
        if rhs is not None:
            self._set_rhs(rhs)
        # linprog's canonical CSC (sorted, duplicates summed), stacked
        # as CSR instead of through its COO round trip
        matrix = sparse.vstack(
            (form.a_ub, form.a_eq), format="csr", dtype=float
        ).tocsc()
        matrix.sum_duplicates()
        row_lower = _replace_inf(np.concatenate(
            (np.full(self.num_ub, -np.inf), np.asarray(form.b_eq, dtype=float))
        ))
        highs = _highs._Highs()
        # exactly the options linprog(method="highs") sets
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue(
            "highs_debug_level",
            int(_highs.HighsDebugLevel.kHighsDebugLevelNone),
        )
        highs.setOptionValue("log_to_console", False)
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue(
            "simplex_strategy",
            int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        )
        status = highs.passModel(
            n, self.row_upper.size, matrix.nnz,
            int(_highs.MatrixFormat.kColwise),
            int(_highs.ObjSense.kMinimize), 0.0,
            np.array(form.c, dtype=float),
            _replace_inf(self.lower.copy()),
            _replace_inf(self.upper.copy()),
            row_lower,
            self.row_upper.copy(),
            matrix.indptr.astype(np.int32),
            matrix.indices.astype(np.int32),
            matrix.data,
            np.zeros(n, dtype=np.int32),  # every column continuous
        )
        return highs, [status]

    def _set_rhs(self, rhs: float) -> None:
        self.row_upper[self.row] = _replace_inf(np.array([rhs], dtype=float))[0]

    def _patch(self, rhs):
        """Move the loaded model to this member; the HiGHS statuses."""
        if rhs is None:
            return []
        self._set_rhs(rhs)
        return [self._highs.changeRowBounds(
            self.row, -_highs.kHighsInf, self.row_upper[self.row]
        )]

    def solve(self, rhs: float | None = None) -> _HighsRun:
        """Solve cold with the budget row at ``rhs``."""
        if self._highs is None:
            highs, statuses = self._load(rhs)
        else:
            highs, statuses = self._highs, self._patch(rhs)
        # HiGHS rejects a row or model it cannot hold (e.g. an upper
        # bound of -inf) as a model error and keeps what it had, so
        # drop the instance: the next member loads afresh
        if _highs.HighsStatus.kError in statuses:
            self._highs = None
            return _failure(highs, _highs.HighsModelStatus.kModelError)
        self._highs = highs
        highs.clearSolver()
        run_status = highs.run()
        model_status = highs.getModelStatus()
        if run_status == _highs.HighsStatus.kError:
            return _failure(highs, model_status)
        info = highs.getInfo()
        iterations = int(
            info.simplex_iteration_count or info.ipm_iteration_count
        )
        if model_status != _highs.HighsModelStatus.kOptimal:
            primal = highs.solutionStatusToString(info.primal_solution_status)
            return _failure(
                highs, model_status, iterations,
                f"model_status is {highs.modelStatusToString(model_status)};"
                f" primal_status is {primal}",
            )
        solution = highs.getSolution()
        slack = self.row_upper - solution.row_value
        return _HighsRun(
            status="optimal",
            message="",
            iterations=iterations,
            x=np.array(solution.col_value),
            fun=info.objective_function_value,
            slack=slack[:self.num_ub],
            con=slack[self.num_ub:],
            ineq_duals=np.array(solution.row_dual)[:self.num_ub],
            lower=self.lower,
            upper=self.upper,
        )


def _failure(
    highs, model_status, iterations: int = 0, detail: str | None = None
) -> _HighsRun:
    """A failed run, its status mapped as ``linprog`` maps it."""
    code, message = _highs_to_scipy_status_message(
        model_status, detail or highs.modelStatusToString(model_status)
    )
    return _HighsRun(
        status=_STATUS_BY_CODE.get(code, "error"),
        message=message,
        iterations=iterations,
    )


def _check_feasible(run: _HighsRun) -> _HighsRun:
    """``linprog``'s post-solve check: an "optimal" point that is not
    feasible within tolerance (or carries NaNs) is a numerical failure."""
    if run.status != "optimal":
        return run
    tol = _FEASIBILITY_TOL
    x = run.x
    if (
        np.isnan(x).any() or np.isnan(run.fun)
        or np.isnan(run.slack).any() or np.isnan(run.con).any()
    ):
        feasible = False
    else:
        feasible = (
            np.all((x >= run.lower - tol) & (x <= run.upper + tol))
            and not (run.slack < -tol).any()
            and not (np.abs(run.con) > tol).any()
        )
    if feasible:
        return run
    return _HighsRun(
        status="numerical",
        message="the solution does not satisfy the constraints within"
        f" the required tolerance of {tol:.2E}",
        iterations=run.iterations,
    )


class ScipyBackend:
    """Solve compiled LPs with HiGHS through scipy's binding.

    Parameters
    ----------
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; when set, every
        solve records an ``lp_solve`` event and solve-time histograms.
    """

    name = "scipy-highs"

    def __init__(self, instrumentation=None) -> None:
        self.instrumentation = instrumentation

    def solve_form(self, form, name: str = "lp") -> Solution:
        """Solve a compiled :class:`~repro.lp.StandardForm` cold."""
        return self._solve_member(
            form, name, lambda: _HighsSession(form).solve()
        )

    def _solve_member(self, form, name: str, solve) -> Solution:
        """Run ``solve`` (a :class:`_HighsRun` factory) in a ``solve``
        span and report it.  A one-off session is built, solved and
        freed inside the call, so the span holds all of its cost."""
        start = time.perf_counter()
        with maybe_span(
            self.instrumentation, "solve", model=name, backend=self.name
        ) as span:
            run = _check_feasible(solve())
            span.annotate(iterations=run.iterations)
        elapsed = time.perf_counter() - start
        if run.status != "optimal":
            raise SolverError(
                f"LP {name!r} failed: {run.message}", status=run.status
            )
        stats = SolveStats(
            backend=self.name,
            wall_seconds=elapsed,
            iterations=run.iterations,
            num_variables=form.num_variables,
            num_constraints=form.a_ub.shape[0] + form.a_eq.shape[0],
        )
        if self.instrumentation is not None:
            self.instrumentation.record_lp_solve(name, stats)
        return Solution(
            status="optimal",
            objective=form.report_objective(float(run.fun)),
            values=np.asarray(run.x, dtype=float),
            stats=stats,
            inequality_duals=form.report_duals(run.ineq_duals),
        )

    def _ladder(self, parametric, rhs_values, label: str) -> list[Solution]:
        """Solve each RHS-slot value cold on one shared session."""
        form = parametric.form
        session = _HighsSession(form, row=parametric.row)
        return [
            self._solve_member(form, label, partial(session.solve, rhs))
            for rhs in rhs_values
        ]

    def solve_batch(self, parametric, rhs_values, name: str | None = None):
        """Solve one compiled form for many values of its RHS slot.

        The form is loaded into HiGHS once; each member patches the
        budget row and re-solves cold, all under a single
        ``batch.solve`` span, so the returned
        :class:`~repro.lp.result.Solution` list is element-wise
        identical to independent cold solves.
        """
        label = name or parametric.name
        rhs_values = np.atleast_1d(np.asarray(rhs_values, dtype=float))
        if rhs_values.size == 0:
            return []
        start = time.perf_counter()
        with maybe_span(
            self.instrumentation, "batch.solve",
            model=label, backend=self.name, members=int(rhs_values.size),
        ):
            solutions = self._ladder(parametric, rhs_values, label)
        if self.instrumentation is not None:
            self.instrumentation.record_lp_batch(
                label,
                members=len(solutions),
                seconds=time.perf_counter() - start,
            )
        return solutions
