"""Equivalence and cache tests for the fast-path LP compiler.

The contract of :mod:`repro.lp.fastbuild` is *bitwise* agreement with
the algebraic oracle (``tests/lp/_algebraic_oracle.py``):
``compile_fast(context)`` must produce the exact arrays of
``compile_model(build_model(planner, context)[0])`` — same row and
column order, same floats — so the fast path plans exactly as the
paper's constraint-by-constraint formulation would.  These tests sweep random topologies, sample
matrices, ``k`` and energy models, and additionally check the replan
cache's invalidation rules (topology change, ``k`` change, cost drift).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.lp import (
    ReplanCache,
    ScipyBackend,
    SimplexBackend,
    compile_lp_lf,
    compile_model,
)
from repro.network.builder import line_topology, random_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.obs import Instrumentation
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from repro.sampling.matrix import SampleMatrix
from tests.lp._algebraic_oracle import build_model, oracle_plan

PLANNERS = {
    "lp-no-lf": LPNoLFPlanner,
    "lp-lf": LPLFPlanner,
    "proof": ProofPlanner,
}


def make_context(
    seed: int,
    n: int,
    m: int,
    k: int,
    *,
    planner_key: str = "lp-lf",
    energy: EnergyModel | None = None,
    failures: LinkFailureModel | None = None,
    instrumentation: Instrumentation | None = None,
) -> PlanningContext:
    """A random but reproducible planning context (paper-style field)."""
    rng = np.random.default_rng(seed)
    topology = random_topology(
        n, radio_range=max(25.0, 200.0 / n**0.5), rng=rng
    )
    field = random_gaussian_field(n, rng).scaled_variance(4.0)
    samples = SampleMatrix(
        np.vstack([field.sample(rng) for _ in range(m)]), k
    )
    energy = energy or EnergyModel.mica2()
    if planner_key == "proof":
        probe = PlanningContext(
            topology=topology, energy=energy, samples=samples, k=k, budget=1e9,
            failures=failures,
        )
        budget = ProofPlanner().minimum_cost(probe) * 1.5
    else:
        budget = energy.message_cost(1) * 2 * k
    return PlanningContext(
        topology=topology,
        energy=energy,
        samples=samples,
        k=k,
        budget=budget,
        failures=failures,
        instrumentation=instrumentation,
    )


def assert_forms_equal(compiled, model) -> None:
    """Bitwise comparison against the algebraic oracle."""
    reference = compile_model(model)
    form = compiled.form
    assert compiled.name == model.name
    assert compiled.column_names == [v.name for v in model.variables]
    assert form.maximize == reference.maximize
    assert form.objective_constant == reference.objective_constant
    assert np.array_equal(form.c, reference.c)
    assert np.array_equal(form.b_ub, reference.b_ub)
    assert np.array_equal(form.b_eq, reference.b_eq)
    assert form.bounds == reference.bounds
    assert form.a_ub.shape == reference.a_ub.shape
    assert np.array_equal(form.a_ub.indptr, reference.a_ub.indptr)
    assert np.array_equal(form.a_ub.indices, reference.a_ub.indices)
    assert np.array_equal(form.a_ub.data, reference.a_ub.data)
    assert form.a_eq.shape == reference.a_eq.shape
    assert form.a_eq.nnz == reference.a_eq.nnz


class TestEquivalence:
    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    @pytest.mark.parametrize(
        "seed,n,m,k",
        [(0, 2, 1, 1), (1, 8, 5, 3), (2, 14, 8, 4), (3, 20, 10, 6)],
    )
    def test_matches_algebraic_oracle(self, planner_key, seed, n, m, k):
        context = make_context(seed, n, m, k, planner_key=planner_key)
        planner = PLANNERS[planner_key]()
        compiled = planner.compile_fast(context)
        assert_forms_equal(compiled, build_model(planner, context)[0])

    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    def test_matches_with_acquisition_and_failures(self, planner_key):
        energy = dataclasses.replace(EnergyModel.mica2(), acquisition_mj=0.05)
        rng = np.random.default_rng(7)
        context = make_context(7, 12, 6, 3, planner_key=planner_key, energy=energy)
        context.failures = LinkFailureModel.random(context.topology, rng)
        planner = PLANNERS[planner_key]()
        compiled = planner.compile_fast(context)
        assert_forms_equal(compiled, build_model(planner, context)[0])

    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    def test_degenerate_line_k_exceeds_nodes(self, planner_key):
        topology = line_topology(3)
        samples = SampleMatrix(np.array([[3.0, 1.0, 2.0]]), 5)  # k clamps
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.3)
        context = PlanningContext(
            topology=topology, energy=energy, samples=samples, k=5, budget=9.0
        )
        planner = PLANNERS[planner_key]()
        compiled = planner.compile_fast(context)
        assert_forms_equal(compiled, build_model(planner, context)[0])

    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    def test_same_plan_both_compilers(self, planner_key):
        """End to end: identical rounded, repaired and filled plans."""
        for seed in (11, 12):
            fast_ctx = make_context(seed, 15, 8, 3, planner_key=planner_key)
            slow_ctx = make_context(seed, 15, 8, 3, planner_key=planner_key)
            fast = PLANNERS[planner_key]().plan(fast_ctx)
            slow = oracle_plan(PLANNERS[planner_key](), slow_ctx)
            assert fast.bandwidths == slow.bandwidths

    @pytest.mark.parametrize("planner_key", sorted(PLANNERS))
    @pytest.mark.parametrize("n", [20, 40])
    def test_compiled_sizes_match_oracle(self, planner_key, n):
        """The LP-timing study reads its ``variables``/``constraints``
        columns off the compiled form; they are the oracle model's."""
        context = make_context(2006, n, 10, 10, planner_key=planner_key)
        planner = PLANNERS[planner_key]()
        form = planner.compile_fast(context).form
        model = build_model(planner, context)[0]
        assert form.num_variables == model.num_variables
        assert form.a_ub.shape[0] + form.a_eq.shape[0] == model.num_constraints

    def test_same_objective_both_solve_entry_points(self):
        context = make_context(21, 18, 9, 4)
        planner = LPLFPlanner()
        compiled = planner.compile_fast(context)
        fast = ScipyBackend().solve_form(compiled.form, compiled.name)
        slow = build_model(planner, context)[0].solve(ScipyBackend())
        assert fast.objective == slow.objective
        assert np.array_equal(fast.values, slow.values)

    def test_simplex_backend_solves_compiled_form(self):
        context = make_context(5, 6, 3, 2)
        compiled = LPLFPlanner().compile_fast(context)
        simplex = SimplexBackend().solve_form(compiled.form, compiled.name)
        scipy_sol = ScipyBackend().solve_form(compiled.form, compiled.name)
        assert simplex.objective == pytest.approx(scipy_sol.objective, abs=1e-6)


class TestReplanCache:
    def test_window_slide_hits(self):
        """Same topology/k/costs, new samples: static blocks are reused
        and the output still matches the oracle exactly."""
        planner = LPLFPlanner()
        first = make_context(30, 10, 5, 3)
        planner.compile_fast(first)
        cache = planner.replan_cache
        assert (cache.hits, cache.misses) == (0, 1)

        slide = PlanningContext(
            topology=first.topology,
            energy=first.energy,
            samples=first.samples.with_sample(
                np.random.default_rng(31).normal(25.0, 4.0, first.topology.n)
            ),
            k=first.k,
            budget=first.budget,
        )
        compiled = planner.compile_fast(slide)
        assert (cache.hits, cache.misses) == (1, 1)
        assert_forms_equal(compiled, build_model(planner, slide)[0])

    def test_topology_change_invalidates(self):
        planner = LPNoLFPlanner()
        first = make_context(40, 10, 5, 3, planner_key="lp-no-lf")
        second = make_context(41, 10, 5, 3, planner_key="lp-no-lf")
        planner.compile_fast(first)
        compiled = planner.compile_fast(second)
        # both topologies stay alive here, so ids cannot collide
        assert planner.replan_cache.hits == 0
        assert planner.replan_cache.misses == 2
        assert_forms_equal(compiled, build_model(planner, second)[0])

    def test_k_change_invalidates(self):
        planner = LPLFPlanner()
        first = make_context(50, 10, 5, 3)
        planner.compile_fast(first)
        rekeyed = PlanningContext(
            topology=first.topology,
            energy=first.energy,
            samples=SampleMatrix(first.samples.values, 2),
            k=2,
            budget=first.budget,
        )
        compiled = planner.compile_fast(rekeyed)
        assert planner.replan_cache.hits == 0
        assert planner.replan_cache.misses == 2
        assert_forms_equal(compiled, build_model(planner, rekeyed)[0])

    def test_cost_drift_invalidates(self):
        """An EWMA update to the failure model changes edge costs and
        must miss — a stale budget row would silently misprice plans."""
        planner = LPLFPlanner()
        first = make_context(60, 10, 5, 3)
        first.failures = LinkFailureModel.uniform(first.topology, 0.1, 2.0)
        planner.compile_fast(first)
        first.failures.record_failure(first.topology.edges[0], failed=True)
        compiled = planner.compile_fast(first)
        assert planner.replan_cache.hits == 0
        assert planner.replan_cache.misses == 2
        assert_forms_equal(compiled, build_model(planner, first)[0])

    def test_content_keying_shares_equal_structures(self):
        """Structurally equal topologies share an entry (the property
        the cross-session service caches rely on), while a colliding
        key with a *different* tree is rejected by the structure check."""
        cache = ReplanCache()
        topo_a = line_topology(4)
        cache.put(("x",), topo_a, {"payload": 1})
        assert cache.get(("x",), line_topology(4))["payload"] == 1
        assert cache.get(("x",), line_topology(5)) is None
        assert cache.get(("x",), topo_a)["payload"] == 1

    def test_capacity_evicts_least_recently_used(self):
        cache = ReplanCache(capacity=2)
        topos = [line_topology(3) for _ in range(3)]
        cache.put((0,), topos[0], {})
        cache.put((1,), topos[1], {})
        cache.get((0,), topos[0])  # refresh 0 so 1 is now the LRU entry
        cache.put((2,), topos[2], {})
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get((1,), topos[1]) is None
        assert cache.get((0,), topos[0]) is not None

    def test_concurrent_access_is_safe(self):
        """Hammering one cache from many threads must not corrupt it
        (shared cross-session instances depend on this)."""
        import threading

        cache = ReplanCache(capacity=4)
        topo = line_topology(3)
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(200):
                    key = ((worker_id + i) % 8,)
                    if cache.get(key, topo) is None:
                        cache.put(key, topo, {"payload": i})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 4
        assert cache.hits + cache.misses == 6 * 200

    def test_obs_counters_and_timers(self):
        obs = Instrumentation()
        planner = LPLFPlanner()
        context = make_context(70, 10, 5, 3, instrumentation=obs)
        planner.compile_fast(context)
        planner.compile_fast(context)
        assert obs.metrics.counter("fastbuild.cache.misses").value == 1
        assert obs.metrics.counter("fastbuild.cache.hits").value == 1
        hist = obs.metrics.histogram(
            "fastbuild.compile_seconds.prospector-lp-lf"
        )
        assert hist.count == 2


class TestEngineReplanUsesCache:
    def test_replans_on_unchanged_topology_hit(self):
        from repro.query.engine import EngineConfig, TopKEngine

        obs = Instrumentation()
        planner = LPLFPlanner()
        engine = TopKEngine(
            topology=line_topology(5),
            energy=EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.3),
            k=2,
            planner=planner,
            config=EngineConfig(budget_mj=12.0, window_capacity=10),
            instrumentation=obs,
        )
        rng = np.random.default_rng(0)
        for _ in range(3):
            engine.feed_sample(rng.normal(20.0, 5.0, 5))
        engine.ensure_plan()
        engine.feed_sample(rng.normal(20.0, 5.0, 5))  # forces a replan
        engine.ensure_plan()
        assert planner.replan_cache.hits >= 1
        assert obs.metrics.counter("fastbuild.cache.hits").value >= 1


class TestPerfSmoke:
    def test_fastbuild_compiles_large_instance_quickly(self):
        """The ISSUE acceptance instance (n=60, m=25) must compile fast.

        The measured time is well under 10 ms; the one-second ceiling
        only guards against an accidental return to per-entry Python
        loops, not against slow CI machines.
        """
        context = make_context(99, 60, 25, 10)
        compile_lp_lf(context)  # warm numpy/scipy code paths
        start = time.perf_counter()
        compiled = compile_lp_lf(context)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert compiled.form.a_ub.shape[1] == compiled.form.c.size
