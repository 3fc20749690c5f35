"""Linear programming: array builders and the HiGHS backend.

The paper solved its plan-optimization LPs with ILOG CPLEX 8.1.  This
subpackage provides the equivalent substrate in one path: the
PROSPECTOR formulations are lowered straight to standard-form arrays
(:mod:`repro.lp.fastbuild`, one :class:`StandardForm` or
:class:`ParametricForm` per plan), and the production backend drives
HiGHS through scipy's binding (one loaded session per call, each
budget re-solved cold; bitwise equal to ``scipy.optimize.linprog``).
The algebraic modeling layer and the pure-Python simplex the tests
check this path against live in ``tests/lp/``.

Example
-------
Maximize ``3x + 4y`` subject to ``x + 2y <= 14`` and ``3x - y <= 0``
(a maximization stores its negated costs):

>>> import numpy as np
>>> from scipy import sparse
>>> form = StandardForm(
...     c=np.array([-3.0, -4.0]),
...     a_ub=sparse.csr_matrix([[1.0, 2.0], [3.0, -1.0]]),
...     b_ub=np.array([14.0, 0.0]),
...     a_eq=sparse.csr_matrix((0, 2)),
...     b_eq=np.zeros(0),
...     bounds=[(0.0, None), (0.0, None)],
...     objective_constant=0.0,
...     maximize=True,
... )
>>> solution = get_backend().solve_form(form, "diet")
>>> round(solution.objective, 6), solution.values.round(6).tolist()
(30.0, [2.0, 6.0])
"""

from repro.lp.backend import (
    Backend,
    available_backends,
    get_backend,
    resolve_backend,
)
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
from repro.lp.result import Solution, SolveStats
from repro.lp.scipy_backend import ScipyBackend
from repro.lp.standard_form import StandardForm

__all__ = [
    "Backend",
    "CompiledLP",
    "ParametricForm",
    "ReplanCache",
    "ScipyBackend",
    "Solution",
    "SolveStats",
    "StandardForm",
    "available_backends",
    "compile_lp_lf",
    "compile_lp_lf_parametric",
    "compile_lp_no_lf",
    "compile_lp_no_lf_parametric",
    "compile_proof",
    "compile_proof_parametric",
    "get_backend",
    "resolve_backend",
]
