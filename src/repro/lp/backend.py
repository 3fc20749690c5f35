"""The solver-backend protocol and the one factory that selects one.

Everything that solves an LP — planners, experiments, the Steiner
study — goes through :func:`get_backend` (or :func:`resolve_backend`
when a caller may already hold an instance) instead of importing a
concrete backend class.  Registering a name here is all a new solver
needs to become selectable everywhere.  HiGHS is the one registered
solver, under three names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.result import Solution
    from repro.obs import Instrumentation


@runtime_checkable
class Backend(Protocol):
    """Anything that can solve an LP in the two shapes the code uses.

    ``solve_form(form, name)``
        Solve a compiled :class:`~repro.lp.standard_form.StandardForm`:
        the :mod:`repro.lp.fastbuild` output every planner solves, or
        the arrays :mod:`repro.stochastic.steiner` assembles.

    ``solve_batch(parametric, rhs_values, name=None)``
        Solve one :class:`~repro.lp.fastbuild.ParametricForm` for a
        sequence of RHS-slot values, returning one ``Solution`` per
        value, element-wise identical to independent cold solves.  The
        HiGHS backend loads the form into one session and re-solves
        each member cold under one ``batch.solve`` span (carrying the
        model, backend and member count), by design: on Fig-3 ladders a HiGHS warm
        restart lands on another optimal vertex in 236 of 280 members
        and changes the rounded plan in 30, so its
        ``lp.warm_start_ratio`` is always 0.
    """

    name: str

    def solve_form(self, form, name: str = "lp") -> "Solution":
        """Return an optimal solution or raise :class:`SolverError`."""
        ...  # pragma: no cover - protocol definition

    def solve_batch(
        self, parametric, rhs_values, name: str | None = None
    ) -> "list[Solution]":
        """Solve a budget ladder, one solution per RHS-slot value."""
        ...  # pragma: no cover - protocol definition


def _make_scipy(instrumentation=None) -> "Backend":
    from repro.lp.scipy_backend import ScipyBackend

    return ScipyBackend(instrumentation=instrumentation)


_FACTORIES = {
    "scipy-highs": _make_scipy,
    "scipy": _make_scipy,
    "highs": _make_scipy,
}

DEFAULT_BACKEND = "scipy-highs"


def available_backends() -> tuple[str, ...]:
    """The names :func:`get_backend` accepts."""
    return tuple(sorted(_FACTORIES))


def get_backend(
    name: str | None = None,
    instrumentation: "Instrumentation | None" = None,
) -> Backend:
    """Build the backend registered under ``name`` (default: HiGHS).

    Parameters
    ----------
    name:
        A registered backend name (see :func:`available_backends`);
        ``None`` selects the production default.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; when given, the
        backend records every solve (a ``solve`` span carrying the
        LP's size plus per-formulation solve-time histograms).
    """
    key = DEFAULT_BACKEND if name is None else name
    try:
        factory = _FACTORIES[key]
    except KeyError:
        raise SolverError(
            f"unknown LP backend {name!r}; available:"
            f" {', '.join(available_backends())}"
        ) from None
    return factory(instrumentation=instrumentation)


def resolve_backend(
    spec: "Backend | str | None",
    instrumentation: "Instrumentation | None" = None,
) -> Backend:
    """Turn a backend spec — instance, name, or ``None`` — into a backend.

    An already-constructed instance is returned unchanged (its own
    ``instrumentation``, if any, governs); names and ``None`` go
    through :func:`get_backend` with the given instrumentation.
    """
    if spec is None or isinstance(spec, str):
        return get_backend(spec, instrumentation=instrumentation)
    return spec
