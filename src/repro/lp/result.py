"""Solution objects returned by LP solver backends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lp.expr import LinExpr, Variable


@dataclass
class SolveStats:
    """Bookkeeping about a solve, for the LP-timing experiments.

    ``warm_started`` and ``pivots`` describe parametric sweeps: a warm
    member restarted the dual simplex from the previous optimal basis,
    and ``pivots`` counts the basis changes (including bound flips)
    this particular solve needed.  Cold solves report
    ``warm_started=False`` and their full pivot count (zero for
    backends that do not expose one).

    ``bland_activations`` and ``cold_fallback`` are degeneracy
    telemetry: how many times this solve had to engage Bland's
    anti-cycling rule, and whether a warm restart had to be abandoned
    for a cold re-solve.  Both are mirrored into the ``lp.sweep.*``
    metrics so warm-start-quality regressions show up in ``python -m
    repro stats``.
    """

    backend: str = ""
    wall_seconds: float = 0.0
    iterations: int = 0
    num_variables: int = 0
    num_constraints: int = 0
    warm_started: bool = False
    pivots: int = 0
    bland_activations: int = 0
    cold_fallback: bool = False


@dataclass
class Solution:
    """An optimal solution to an LP model.

    Attributes
    ----------
    status:
        ``"optimal"`` on success; backends raise
        :class:`~repro.errors.SolverError` otherwise, so user code only
        ever sees optimal solutions.
    objective:
        Objective value in the model's own sense (a maximization model
        reports the maximum, even though backends minimize internally).
    values:
        Array of variable values indexed by variable index.
    inequality_duals:
        Shadow prices of the model's ``<=``/``>=`` constraints, indexed
        by their order among inequality rows, *in the model's own
        sense*: the objective's improvement per unit of right-hand-side
        slack.  ``None`` when the backend does not produce duals (the
        pure simplex).
    """

    status: str
    objective: float
    values: np.ndarray
    stats: SolveStats = field(default_factory=SolveStats)
    inequality_duals: np.ndarray | None = None

    def dual_of(self, model, constraint) -> float:
        """Shadow price of one inequality constraint of ``model``.

        For a budget row ``cost <= E`` of a maximization model this is
        the expected objective gain per extra unit of budget.
        """
        from repro.errors import SolverError

        if self.inequality_duals is None:
            raise SolverError("this backend did not produce dual values")
        index = 0
        for candidate in model.constraints:
            if candidate.sense == "==":
                continue
            if candidate is constraint:
                return float(self.inequality_duals[index])
            index += 1
        raise SolverError("constraint is not an inequality of this model")

    def value(self, item: Variable | LinExpr) -> float:
        """Value of a variable or linear expression under this solution."""
        if isinstance(item, Variable):
            return float(self.values[item.index])
        return float(item.evaluate(self.values))

    def __getitem__(self, var: Variable) -> float:
        return self.value(var)
