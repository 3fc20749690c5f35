"""A small linear-programming modeling layer with pluggable solvers.

The paper solved its plan-optimization LPs with ILOG CPLEX 8.1.  This
subpackage provides the equivalent substrate: an algebraic modeling
layer (:class:`~repro.lp.model.Model`) that compiles to standard-form
arrays, a production backend that drives HiGHS through scipy's binding
(one loaded session per call, each budget re-solved cold; bitwise equal
to ``scipy.optimize.linprog``), and a self-contained two-phase simplex
implementation used to cross-check the production backend in tests.

Example
-------
>>> from repro.lp import Model
>>> m = Model("diet")
>>> x = m.add_variable("x", lb=0.0)
>>> y = m.add_variable("y", lb=0.0)
>>> m.add_constraint(x + 2.0 * y <= 14.0)
>>> m.add_constraint(3.0 * x - y >= 0.0)
>>> m.maximize(3.0 * x + 4.0 * y)
>>> sol = m.solve()
>>> round(sol.objective, 6)
34.0
"""

from repro.lp.backend import (
    Backend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.lp.expr import LinExpr, Variable
from repro.lp.fastbuild import (
    CompiledLP,
    ParametricForm,
    ReplanCache,
    compile_lp_lf,
    compile_lp_lf_parametric,
    compile_lp_no_lf,
    compile_lp_no_lf_parametric,
    compile_proof,
    compile_proof_parametric,
)
from repro.lp.model import Constraint, Model
from repro.lp.result import Solution, SolveStats
from repro.lp.scipy_backend import ScipyBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.standard_form import StandardForm, compile_model

__all__ = [
    "Backend",
    "CompiledLP",
    "Constraint",
    "LinExpr",
    "Model",
    "ParametricForm",
    "ReplanCache",
    "ScipyBackend",
    "SimplexBackend",
    "Solution",
    "SolveStats",
    "StandardForm",
    "Variable",
    "available_backends",
    "compile_lp_lf",
    "compile_lp_lf_parametric",
    "compile_lp_no_lf",
    "compile_lp_no_lf_parametric",
    "compile_model",
    "compile_proof",
    "compile_proof_parametric",
    "get_backend",
    "resolve_backend",
]
