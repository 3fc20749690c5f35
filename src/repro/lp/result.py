"""Solution objects returned by LP solver backends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolveStats:
    """Bookkeeping about a solve, for the LP-timing experiments.

    ``warm_started`` marks a ladder member restarted from the previous
    member's basis (a cold re-run after a failed warm start is not).
    """

    backend: str = ""
    wall_seconds: float = 0.0
    iterations: int = 0
    num_variables: int = 0
    num_constraints: int = 0
    warm_started: bool = False


@dataclass
class Solution:
    """An optimal solution to a compiled LP.

    Attributes
    ----------
    status:
        ``"optimal"`` on success; backends raise
        :class:`~repro.errors.SolverError` otherwise, so user code only
        ever sees optimal solutions.
    objective:
        Objective value in the formulation's own sense (a maximization
        reports the maximum, even though backends minimize internally).
    values:
        Array of variable values indexed by column.
    inequality_duals:
        Shadow prices of the ``<=`` rows, in row order and *in the
        formulation's own sense*: the objective's improvement per unit
        of right-hand-side slack.  ``None`` when the backend does not
        produce duals.
    """

    status: str
    objective: float
    values: np.ndarray
    stats: SolveStats = field(default_factory=SolveStats)
    inequality_duals: np.ndarray | None = None
