"""The experiment runner: deterministic seeding, caching, parallelism."""

import numpy as np
import pytest

from repro.experiments.runner import (
    ExperimentRunner,
    content_key,
    run_trials,
)
from repro.network.builder import random_topology
from repro.obs import Instrumentation


def _draw_trial(params: dict, rng: np.random.Generator) -> dict:
    """Module-level so the process pool can pickle it."""
    return {"x": params["x"] * 2, "draw": float(rng.random())}


PARAMS = [{"x": i} for i in range(5)]


class TestDeterminism:
    def test_same_seed_same_results(self):
        first = ExperimentRunner(seed=9).map(_draw_trial, PARAMS)
        second = ExperimentRunner(seed=9).map(_draw_trial, PARAMS)
        assert first == second
        assert [row["x"] for row in first] == [0, 2, 4, 6, 8]

    def test_trials_get_independent_streams(self):
        results = ExperimentRunner(seed=9).map(_draw_trial, PARAMS)
        draws = [row["draw"] for row in results]
        assert len(set(draws)) == len(draws)

    def test_different_seed_different_draws(self):
        first = ExperimentRunner(seed=1).map(_draw_trial, PARAMS)
        second = ExperimentRunner(seed=2).map(_draw_trial, PARAMS)
        assert [r["draw"] for r in first] != [r["draw"] for r in second]

    def test_empty_bag(self):
        assert ExperimentRunner().map(_draw_trial, []) == []


class TestCaching:
    def test_second_run_is_served_from_cache(self):
        obs = Instrumentation()
        runner = ExperimentRunner(seed=4, instrumentation=obs)
        first = runner.map(_draw_trial, PARAMS)
        assert runner.cache_size == len(PARAMS)
        second = runner.map(_draw_trial, PARAMS)
        assert second == first
        assert obs.metrics.counter("runner.cache.hits").value == len(PARAMS)
        assert obs.metrics.counter("runner.cache.misses").value == len(PARAMS)
        assert obs.metrics.counter("runner.trials").value == 2 * len(PARAMS)

    def test_changed_params_miss(self):
        runner = ExperimentRunner(seed=4)
        runner.map(_draw_trial, PARAMS)
        runner.map(_draw_trial, [{"x": 99}])
        assert runner.cache_size == len(PARAMS) + 1

    def test_changed_seed_misses(self):
        runner = ExperimentRunner(seed=4)
        runner.map(_draw_trial, PARAMS, seed=4)
        runner.map(_draw_trial, PARAMS, seed=5)
        assert runner.cache_size == 2 * len(PARAMS)

    def test_clear_cache(self):
        runner = ExperimentRunner(seed=4)
        runner.map(_draw_trial, PARAMS)
        runner.clear_cache()
        assert runner.cache_size == 0


class TestContentKeys:
    def test_key_covers_function_params_and_seed(self):
        seed_a, seed_b = np.random.SeedSequence(0).spawn(2)
        base = content_key(_draw_trial, {"x": 1}, seed_a)
        assert content_key(_draw_trial, {"x": 1}, seed_a) == base
        assert content_key(_draw_trial, {"x": 2}, seed_a) != base
        assert content_key(_draw_trial, {"x": 1}, seed_b) != base

    def test_topology_identity_is_structural(self):
        """Two equal-structure topologies key identically even when one
        has populated its lazy derived caches (cache_token, not pickle,
        decides)."""
        (seed,) = np.random.SeedSequence(0).spawn(1)
        first = random_topology(20, rng=np.random.default_rng(1))
        second = random_topology(20, rng=np.random.default_rng(1))
        assert first.same_structure(second)
        second.descendant_matrix()  # populate a lazy cache
        second.path_edge_arrays()
        assert content_key(
            _draw_trial, {"topology": first}, seed
        ) == content_key(_draw_trial, {"topology": second}, seed)

    def test_ndarray_content_keys(self):
        (seed,) = np.random.SeedSequence(0).spawn(1)
        a = np.arange(6, dtype=np.float64)
        base = content_key(_draw_trial, {"trace": a}, seed)
        assert content_key(_draw_trial, {"trace": a.copy()}, seed) == base
        bumped = a.copy()
        bumped[3] += 1e-9
        assert content_key(_draw_trial, {"trace": bumped}, seed) != base

    def test_sink_history_leaves_the_key_unchanged(self):
        """An inline trial's telemetry sink is part of its params, but
        what the sink has accumulated must not change the key, or a
        re-run with the same sink would never hit the cache."""
        (seed,) = np.random.SeedSequence(0).spawn(1)
        obs = Instrumentation()
        base = content_key(_draw_trial, {"x": 1, "instrumentation": obs}, seed)
        obs.counter("runner.trials").inc()
        with obs.span("plan"):
            obs.event("plan_installed", reason="initial")
        assert content_key(
            _draw_trial, {"x": 1, "instrumentation": obs}, seed
        ) == base
        assert content_key(
            _draw_trial, {"x": 1, "instrumentation": Instrumentation()}, seed
        ) == base
        assert content_key(_draw_trial, {"x": 1}, seed) != base

    def test_rerun_with_a_sink_hits_the_cache(self):
        obs = Instrumentation()
        runner = ExperimentRunner(seed=4, instrumentation=obs)
        params = [{"x": i, "instrumentation": obs} for i in range(3)]
        first = runner.map(_draw_trial, params)
        assert runner.map(_draw_trial, params) == first
        assert obs.metrics.counter("runner.cache.hits").value == 3


class TestParallel:
    def test_pool_matches_inline(self):
        inline = ExperimentRunner(processes=1, seed=7).map(_draw_trial, PARAMS)
        pooled = ExperimentRunner(processes=2, seed=7).map(_draw_trial, PARAMS)
        assert pooled == inline

    def test_run_trials_convenience(self):
        rows = run_trials(_draw_trial, PARAMS, seed=7, processes=2)
        assert rows == ExperimentRunner(seed=7).map(_draw_trial, PARAMS)
