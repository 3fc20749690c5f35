"""Cross-process artifact store: exact round trips, graceful misses."""

import json

import numpy as np
import pytest

from repro.lp.fastbuild import compile_lp_lf_parametric
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.sampling.matrix import SampleMatrix
from repro.service.artifacts import ArtifactStore, key_digest
from repro.service.cache import SharedPlanCache


@pytest.fixture
def context():
    rng = np.random.default_rng(3)
    topology = random_topology(10, rng=rng, radio_range=70.0)
    samples = SampleMatrix(rng.normal(25.0, 3.0, (4, 10)), k=3)
    return PlanningContext(
        topology=topology,
        energy=EnergyModel.mica2(),
        samples=samples,
        k=3,
        budget=40.0,
    )


@pytest.fixture
def compiled(context):
    return compile_lp_lf_parametric(context)


def _key(context):
    return SharedPlanCache().key_for("lp_lf", context)


def test_round_trip_is_exact(tmp_path, context, compiled):
    store = ArtifactStore(tmp_path)
    key = _key(context)
    assert store.save(key, compiled)
    loaded = store.load(key)
    assert loaded is not None

    a, b = compiled.compiled, loaded.compiled
    assert a.name == b.name
    assert a.column_names == b.column_names
    assert a.primary_columns == b.primary_columns
    np.testing.assert_array_equal(a.form.c, b.form.c)
    np.testing.assert_array_equal(a.form.b_ub, b.form.b_ub)
    np.testing.assert_array_equal(a.form.b_eq, b.form.b_eq)
    np.testing.assert_array_equal(
        np.asarray(a.form.a_ub.todense()), np.asarray(b.form.a_ub.todense())
    )
    np.testing.assert_array_equal(
        np.asarray(a.form.a_eq.todense()), np.asarray(b.form.a_eq.todense())
    )
    assert a.form.bounds == b.form.bounds
    assert a.form.objective_constant == b.form.objective_constant
    assert a.form.maximize == b.form.maximize
    assert loaded.row == compiled.row
    # the parametric slot is reconstructed bitwise: same closure values
    for budget in (0.0, 17.25, 40.0, 1e6):
        assert loaded.rhs_of(budget) == compiled.rhs_of(budget)
    assert store.stats()["saves"] == 1
    assert store.stats()["disk_hits"] == 1


def test_loaded_matrices_are_memory_mapped(tmp_path, context, compiled):
    store = ArtifactStore(tmp_path)
    key = _key(context)
    store.save(key, compiled)
    loaded = store.load(key)
    assert isinstance(loaded.compiled.form.a_ub.data, np.memmap)


def test_absent_key_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.load(("lp_lf", "nope")) is None
    assert store.stats()["disk_misses"] == 1


def test_corrupt_entry_degrades_to_miss(tmp_path, context, compiled):
    store = ArtifactStore(tmp_path)
    key = _key(context)
    store.save(key, compiled)
    (store.path_for(key) / "meta.json").write_text("{not json")
    assert store.load(key) is None
    assert store.stats()["disk_misses"] == 1


def test_foreign_key_collision_is_a_miss(tmp_path, context, compiled):
    """A digest collision (or tampered entry) is detected by key_repr."""
    store = ArtifactStore(tmp_path)
    key = _key(context)
    store.save(key, compiled)
    meta_path = store.path_for(key) / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["key_repr"] = "something else"
    meta_path.write_text(json.dumps(meta))
    assert store.load(key) is None


def test_save_skips_forms_without_affine_rhs(tmp_path, compiled, context):
    from dataclasses import replace

    store = ArtifactStore(tmp_path)
    opaque = replace(compiled, rhs_intercept=None)
    assert not store.save(_key(context), opaque)
    assert len(store) == 0


def test_save_is_idempotent(tmp_path, context, compiled):
    store = ArtifactStore(tmp_path)
    key = _key(context)
    assert store.save(key, compiled)
    assert store.save(key, compiled)
    assert store.stats()["saves"] == 1
    assert len(store) == 1


def test_prune_bounds_entries(tmp_path, context, compiled):
    store = ArtifactStore(tmp_path, max_entries=2)
    for index in range(4):
        store.save(("lp_lf", f"variant-{index}"), compiled)
    assert len(store) == 2


def test_key_digest_is_stable():
    key = ("lp_lf", "tok", 3, (1.0, 2.0), "abcd")
    assert key_digest(key) == key_digest(("lp_lf", "tok", 3, (1.0, 2.0), "abcd"))
    assert key_digest(key) != key_digest(("lp_no_lf",) + key[1:])


def test_cold_cache_loads_instead_of_recompiling(tmp_path, context, compiled):
    """Two pools sharing one store: the second never calls compile."""
    store_dir = tmp_path / "artifacts"
    warm = SharedPlanCache(artifacts=ArtifactStore(store_dir))
    compiles = []

    def compile_fn():
        compiles.append(1)
        return compile_lp_lf_parametric(context)

    first = warm.parametric("lp_lf", context, compile_fn)
    assert len(compiles) == 1
    assert warm.artifacts.stats()["saves"] == 1

    cold = SharedPlanCache(artifacts=ArtifactStore(store_dir))

    def must_not_compile():
        raise AssertionError("cold pool recompiled a stored artifact")

    second = cold.parametric("lp_lf", context, must_not_compile)
    assert cold.artifacts.stats()["disk_hits"] == 1
    np.testing.assert_array_equal(
        first.compiled.form.c, second.compiled.form.c
    )
    assert first.rhs_of(context.budget) == second.rhs_of(context.budget)
    assert cold.stats()["artifacts"]["disk_hits"] == 1


def test_loaded_form_solves_identically(tmp_path, context, compiled):
    from repro.lp.backend import get_backend

    store = ArtifactStore(tmp_path)
    key = _key(context)
    store.save(key, compiled)
    loaded = store.load(key)
    backend = get_backend("pure-simplex")
    ladder = [context.budget * f for f in (0.8, 1.0, 1.2)]
    originals = backend.solve_batch(compiled, ladder)
    revived = backend.solve_batch(loaded, ladder)
    for a, b in zip(originals, revived):
        np.testing.assert_array_equal(a.values, b.values)
        assert a.objective == b.objective
