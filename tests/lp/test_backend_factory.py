"""Tests for the backend protocol, factory, and name resolution."""

import pytest

from repro.errors import SolverError
from repro.lp import (
    Backend,
    ScipyBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.obs import Instrumentation
from tests.lp._model_oracle import Model
from tests.lp._simplex_oracle import SimplexBackend

_HIGHS_NAMES = ("highs", "scipy", "scipy-highs")


def tiny_model() -> Model:
    model = Model("tiny")
    x = model.add_variable("x", ub=4.0)
    y = model.add_variable("y", ub=3.0)
    model.add_constraint(x + y <= 5.0, name="cap")
    model.maximize(2.0 * x + y)
    return model


class TestFactory:
    def test_default_is_scipy_highs(self):
        backend = get_backend()
        assert isinstance(backend, ScipyBackend)
        assert backend.name == "scipy-highs"

    @pytest.mark.parametrize("alias", ["scipy-highs", "scipy", "highs"])
    def test_scipy_aliases(self, alias):
        assert isinstance(get_backend(alias), ScipyBackend)

    @pytest.mark.parametrize("alias", ["pure-simplex", "simplex"])
    def test_simplex_aliases(self, alias):
        # the pure simplex is a test oracle, not a registered backend
        with pytest.raises(
            SolverError, match=f"unknown LP backend '{alias}'"
        ) as err:
            get_backend(alias)
        assert str(err.value).endswith("available: " + ", ".join(_HIGHS_NAMES))

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(SolverError, match="unknown LP backend 'glpk'") as err:
            get_backend("glpk")
        assert str(err.value).endswith("available: " + ", ".join(_HIGHS_NAMES))

    def test_available_backends_sorted_and_complete(self):
        names = available_backends()
        assert names == tuple(sorted(names))
        assert names == _HIGHS_NAMES

    def test_factory_products_satisfy_protocol(self):
        for name in available_backends():
            assert isinstance(get_backend(name), Backend)


class TestResolve:
    def test_instance_passes_through_unchanged(self):
        backend = SimplexBackend()
        assert resolve_backend(backend) is backend

    def test_instance_keeps_its_own_instrumentation(self):
        # an already-constructed backend's own wiring governs, even if
        # the resolver is handed a different Instrumentation
        backend = SimplexBackend()
        assert resolve_backend(backend, Instrumentation()) is backend
        assert backend.instrumentation is None

    def test_name_and_none_build_fresh(self):
        by_name = resolve_backend("highs")
        assert isinstance(by_name, ScipyBackend)
        assert resolve_backend("highs") is not by_name
        assert isinstance(resolve_backend(None), ScipyBackend)

    def test_instrumentation_threaded_into_built_backend(self):
        obs = Instrumentation()
        backend = resolve_backend("scipy", obs)
        assert backend.instrumentation is obs


class TestModelSolveSpecs:
    def test_solve_accepts_name(self):
        solution = tiny_model().solve("highs")
        assert solution.objective == pytest.approx(9.0)

    def test_solve_accepts_instance_and_none(self):
        by_instance = tiny_model().solve(ScipyBackend())
        by_default = tiny_model().solve()
        assert by_instance.objective == pytest.approx(9.0)
        assert by_default.objective == pytest.approx(9.0)

    def test_solve_rejects_unknown_name(self):
        with pytest.raises(SolverError, match="unknown LP backend"):
            tiny_model().solve("cplex")


class TestInstrumentedBackends:
    BUILD = {
        "scipy-highs": lambda obs: get_backend("scipy-highs", obs),
        "pure-simplex": lambda obs: SimplexBackend(instrumentation=obs),
    }

    @pytest.mark.parametrize("name", ["scipy-highs", "pure-simplex"])
    def test_each_solve_is_recorded(self, name):
        obs = Instrumentation()
        backend = self.BUILD[name](obs)
        tiny_model().solve(backend)
        tiny_model().solve(backend)

        assert obs.metrics.counter("lp.solves").value == 2
        hist = obs.metrics.histogram("lp.solve_seconds.tiny")
        assert hist.count == 2
        events = obs.trace.events("lp_solve")
        assert len(events) == 2
        assert events[0].data["model"] == "tiny"
        assert events[0].data["backend"] == backend.name
        assert events[0].data["variables"] == 2
        assert events[0].data["constraints"] == 1

    def test_uninstrumented_backend_records_nothing(self):
        backend = SimplexBackend()
        assert backend.instrumentation is None
        tiny_model().solve(backend)  # must not raise
