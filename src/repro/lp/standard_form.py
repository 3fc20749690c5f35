"""The standard-form arrays every backend solves.

The form matches ``scipy.optimize.linprog``::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                bounds[i][0] <= x[i] <= bounds[i][1]

Builders (:mod:`repro.lp.fastbuild`, :mod:`repro.stochastic.steiner`)
negate maximization objectives when they assemble the arrays, and the
form un-negates the reported objective and duals, so backends only
ever minimize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass
class StandardForm:
    """Arrays for ``min c'x s.t. A_ub x <= b_ub, A_eq x == b_eq, bounds``."""

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: list[tuple[float | None, float | None]]
    objective_constant: float
    maximize: bool

    @property
    def num_variables(self) -> int:
        return len(self.c)

    def report_objective(self, minimized_value: float) -> float:
        """Convert the backend's minimized value to the formulation's
        own sense."""
        value = minimized_value + self.objective_constant
        return -value if self.maximize else value

    def report_duals(self, duals: np.ndarray | None) -> np.ndarray | None:
        """The backend's ``<=``-row duals, ``d(minimized objective) /
        d(b_ub)``, converted to the formulation's own sense."""
        if duals is None:
            return None
        duals = np.array(duals, dtype=float)
        return -duals if self.maximize else duals
