"""The algebraic LP modeling layer, kept as a test oracle.

:class:`Model` owns :class:`Variable` columns and :class:`Constraint`
rows built from :class:`LinExpr` arithmetic (comparisons build
constraints), and :func:`compile_model` lowers it to the same
:class:`~repro.lp.StandardForm` arrays production builds directly.
Production never builds a model: the planners compile with
:mod:`repro.lp.fastbuild` and the Steiner study assembles its arrays
itself.  The tests spell formulations here, one ``add_constraint`` per
paper constraint, and check the array builders against
:func:`compile_model` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy import sparse

from repro.errors import ModelError, SolverError
from repro.lp import Solution, StandardForm
from repro.lp.backend import resolve_backend

Number = Union[int, float]
ExprLike = Union["Variable", "LinExpr", Number]


class Variable:
    """A single decision variable owned by a :class:`Model`.

    Variables are created through :meth:`Model.add_variable`; they should
    never be instantiated directly by user code.
    """

    __slots__ = ("model", "index", "name", "lb", "ub")

    def __init__(
        self,
        model: "Model",
        index: int,
        name: str,
        lb: float | None,
        ub: float | None,
    ) -> None:
        self.model = model
        self.index = index
        self.name = name
        self.lb = lb
        self.ub = ub

    def to_expr(self) -> "LinExpr":
        """Return this variable as a single-term linear expression."""
        return LinExpr({self.index: 1.0}, 0.0, self.model)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-1.0) * self.to_expr() + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    def __rmul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    # -- comparisons build constraints ---------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return self.to_expr() <= other

    def __ge__(self, other: ExprLike) -> "Constraint":
        return self.to_expr() >= other

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self.to_expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.model), self.index))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """A sparse linear expression ``sum(coeff * var) + constant``."""

    __slots__ = ("terms", "constant", "model")

    def __init__(
        self,
        terms: Mapping[int, float] | None = None,
        constant: float = 0.0,
        model: "Model | None" = None,
    ) -> None:
        self.terms: dict[int, float] = dict(terms) if terms else {}
        self.constant = float(constant)
        self.model = model

    # -- construction helpers -------------------------------------------
    @staticmethod
    def sum_of(items: Iterable[ExprLike]) -> "LinExpr":
        """Sum an iterable of variables/expressions/numbers.

        Unlike the builtin ``sum``, this never materializes intermediate
        expressions quadratically: terms are accumulated in one dict.
        """
        total = LinExpr()
        for item in items:
            total._iadd(item)
        return total

    def _merge_model(self, other: "Variable | LinExpr") -> None:
        other_model = other.model
        if other_model is None:
            return
        if self.model is None:
            self.model = other_model
        elif self.model is not other_model:
            raise ModelError("cannot mix variables from different models")

    def _iadd(self, other: ExprLike, sign: float = 1.0) -> "LinExpr":
        if isinstance(other, (int, float)):
            self.constant += sign * other
            return self
        if isinstance(other, Variable):
            self._merge_model(other)
            self.terms[other.index] = self.terms.get(other.index, 0.0) + sign
            return self
        if isinstance(other, LinExpr):
            self._merge_model(other)
            for idx, coeff in other.terms.items():
                self.terms[idx] = self.terms.get(idx, 0.0) + sign * coeff
            self.constant += sign * other.constant
            return self
        raise TypeError(f"cannot add {type(other).__name__} to LinExpr")

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant, self.model)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: ExprLike) -> "LinExpr":
        return self.copy()._iadd(other)

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.copy()._iadd(other)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.copy()._iadd(other, sign=-1.0)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (self * -1.0)._iadd(other)

    def __mul__(self, coeff: Number) -> "LinExpr":
        if not isinstance(coeff, (int, float)):
            raise TypeError("LinExpr can only be scaled by a number")
        scaled = {idx: c * coeff for idx, c in self.terms.items()}
        return LinExpr(scaled, self.constant * coeff, self.model)

    def __rmul__(self, coeff: Number) -> "LinExpr":
        return self * coeff

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons build constraints -------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint.build(self, other, "<=")

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint.build(self, other, ">=")

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return Constraint.build(self, other, "==")
        return NotImplemented

    def __hash__(self) -> int:  # expressions are mutable; identity hash
        return id(self)

    def evaluate(self, values) -> float:
        """Evaluate the expression given an indexable of variable values."""
        total = self.constant
        for idx, coeff in self.terms.items():
            total += coeff * float(values[idx])
        return total

    def __repr__(self) -> str:
        parts = [f"{c:+g}*x{i}" for i, c in sorted(self.terms.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


_SENSES = ("<=", ">=", "==")


class Constraint:
    """A linear constraint ``expr (<=|>=|==) rhs``.

    The right-hand side is folded so that ``expr`` carries all variable
    terms and ``rhs`` is a plain float.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(self, expr: LinExpr, sense: str, rhs: float, name: str = "") -> None:
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.rhs = float(rhs)
        self.name = name

    @classmethod
    def build(cls, lhs: LinExpr, rhs: ExprLike, sense: str) -> "Constraint":
        """Build a constraint from ``lhs sense rhs``, folding both sides."""
        folded = lhs - rhs  # all terms on the left
        constant = folded.constant
        folded.constant = 0.0
        return cls(folded, sense, -constant)

    def is_satisfied(self, values: Sequence[float], tol: float = 1e-7) -> bool:
        """Check the constraint against a candidate solution vector."""
        lhs = self.expr.evaluate(values)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense} {self.rhs:g}{label})"


class Model:
    """An LP model: ``min/max c'x`` subject to linear constraints and bounds.

    Parameters
    ----------
    name:
        Optional label used in error messages and reprs.

    Notes
    -----
    Integrality is handled *outside* the model, as in the paper: the
    PROSPECTOR formulations declare 0/1 or integer variables, relax them
    to the continuous ranges here, and round the fractional solution
    afterwards (:mod:`repro.planners.rounding`).
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr | None = None
        self.sense: str = "min"
        self._names: dict[str, Variable] = {}

    # -- variables --------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lb: float | None = 0.0,
        ub: float | None = None,
    ) -> Variable:
        """Create a variable with the given bounds (default ``x >= 0``)."""
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r} in model {self.name!r}")
        if lb is not None and ub is not None and lb > ub:
            raise ModelError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(self, len(self.variables), name, lb, ub)
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_variables(
        self, names: Iterable[str], lb: float | None = 0.0, ub: float | None = None
    ) -> list[Variable]:
        """Create several variables sharing the same bounds."""
        return [self.add_variable(name, lb=lb, ub=ub) for name in names]

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._names[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from None

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    # -- constraints -------------------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Attach a constraint (built via expression comparisons)."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint; did you compare two"
                " plain numbers instead of expressions?"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def _check_ownership(self, expr: LinExpr) -> None:
        if expr.model is not None and expr.model is not self:
            raise ModelError(
                f"expression belongs to model {expr.model.name!r}, not {self.name!r}"
            )
        for idx in expr.terms:
            if idx >= len(self.variables):
                raise ModelError(f"expression references unknown variable index {idx}")

    # -- objective ----------------------------------------------------------
    def minimize(self, expr: ExprLike) -> None:
        """Set a minimization objective."""
        self._set_objective(expr, "min")

    def maximize(self, expr: ExprLike) -> None:
        """Set a maximization objective."""
        self._set_objective(expr, "max")

    def _set_objective(self, expr: ExprLike, sense: str) -> None:
        if isinstance(expr, Variable):
            expr = expr.to_expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, float(expr), self)
        if not isinstance(expr, LinExpr):
            raise ModelError("objective must be a linear expression")
        self._check_ownership(expr)
        self.objective = expr
        self.sense = sense

    # -- solving ---------------------------------------------------------------
    def solve(self, backend=None) -> "ModelSolution":
        """Compile with :func:`compile_model`, solve the form, and report
        the duals against this model's own rows.

        ``backend`` is an instance, a registered backend name, or
        ``None`` for the production default (HiGHS).
        """
        if self.objective is None:
            raise ModelError(f"model {self.name!r} has no objective")
        solution = resolve_backend(backend).solve_form(
            compile_model(self), self.name
        )
        return ModelSolution(
            status=solution.status,
            objective=solution.objective,
            values=solution.values,
            stats=solution.stats,
            inequality_duals=model_duals(solution.inequality_duals, self),
        )

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables},"
            f" constraints={self.num_constraints}, sense={self.sense})"
        )


@dataclass
class ModelSolution(Solution):
    """A :class:`~repro.lp.Solution` read through its model's handles.

    ``inequality_duals`` are in the model's own sense and row
    orientation: the objective's improvement per unit of the original
    right-hand side, ``>=`` rows included.
    """

    def dual_of(self, model: Model, constraint: Constraint) -> float:
        """Shadow price of one inequality constraint of ``model``.

        For a budget row ``cost <= E`` of a maximization model this is
        the expected objective gain per extra unit of budget.
        """
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


def model_duals(duals: np.ndarray | None, model: Model) -> np.ndarray | None:
    """Form-sense duals re-oriented to ``model``'s rows.

    A backend reports each compiled ``<=`` row's shadow price in the
    model's objective sense; :func:`compile_model` negated every
    ``>=`` row into a ``<=`` row, so those prices flip back here.
    """
    if duals is None:
        return None
    duals = np.array(duals, dtype=float)
    row = 0
    for constraint in model.constraints:
        if constraint.sense == "==":
            continue
        if constraint.sense == ">=":
            duals[row] = -duals[row]
        row += 1
    return duals


def compile_model(model: Model) -> StandardForm:
    """Lower an algebraic model into :class:`StandardForm` arrays.

    ``>=`` rows are negated into ``<=`` rows; ``==`` rows go to the
    equality block.  The sparse matrices are built in COO form in a
    single pass and converted to CSR.
    """
    n = model.num_variables
    objective = model.objective
    maximize = model.sense == "max"

    c = np.zeros(n)
    constant = 0.0
    if objective is not None:
        for idx, coeff in objective.terms.items():
            c[idx] = coeff
        constant = objective.constant
    if maximize:
        c = -c
        constant = -constant

    ub_rows: list[int] = []
    ub_cols: list[int] = []
    ub_vals: list[float] = []
    b_ub: list[float] = []
    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_vals: list[float] = []
    b_eq: list[float] = []

    for constraint in model.constraints:
        sign = -1.0 if constraint.sense == ">=" else 1.0
        if constraint.sense == "==":
            row = len(b_eq)
            for idx, coeff in constraint.expr.terms.items():
                eq_rows.append(row)
                eq_cols.append(idx)
                eq_vals.append(coeff)
            b_eq.append(constraint.rhs)
        else:
            row = len(b_ub)
            for idx, coeff in constraint.expr.terms.items():
                ub_rows.append(row)
                ub_cols.append(idx)
                ub_vals.append(sign * coeff)
            b_ub.append(sign * constraint.rhs)

    a_ub = sparse.coo_matrix(
        (ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), n)
    ).tocsr()
    a_eq = sparse.coo_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), n)
    ).tocsr()

    bounds = [(var.lb, var.ub) for var in model.variables]
    return StandardForm(
        c=c,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=bounds,
        objective_constant=constant,
        maximize=maximize,
    )
