"""Integration: an instrumented end-to-end engine run emits the
expected event sequence, and disabled instrumentation (None) leaves
behavior untouched with the shared no-op fast path."""

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.obs import NULL_TIMER, Instrumentation, maybe_timer, record_event
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.query.engine import EngineConfig, TopKEngine


@pytest.fixture
def setting():
    rng = np.random.default_rng(5)
    topology = random_topology(24, rng=rng, radio_range=40.0)
    field = random_gaussian_field(24, rng)
    return rng, topology, field


def make_engine(topology, instrumentation=None, **config):
    return TopKEngine(
        topology,
        EnergyModel.mica2(),
        k=4,
        planner=LPNoLFPlanner(),
        config=EngineConfig(budget_mj=40.0, **config),
        rng=np.random.default_rng(0),
        instrumentation=instrumentation,
    )


class TestEventSequence:
    def test_bootstrap_then_query_sequence(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        for __ in range(5):
            engine.feed_sample(field.sample(rng))
        engine.query(field.sample(rng))

        kinds = obs.trace.kinds()
        # five bootstrap samples, then the first query triggers an LP
        # solve, a plan build, an install, and one collection, whose
        # record is its ``collect`` span
        assert kinds[:5] == ["sample_collected"] * 5
        assert kinds[5:] == ["lp_solve", "plan_built", "plan_installed"]
        installed = obs.trace.events("plan_installed")[0]
        assert installed.data["reason"] == "initial"
        assert installed.data["install_mj"] > 0
        (collect,) = obs.spans.find("collect")
        assert collect.attributes["label"] == "collection"
        assert installed.ts <= collect.start_s

    def test_lp_solve_event_carries_solver_stats(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        for __ in range(4):
            engine.feed_sample(field.sample(rng))
        engine.ensure_plan()
        event = obs.trace.events("lp_solve")[0]
        assert event.data["model"] == "prospector-lp-no-lf"
        assert event.data["backend"] == "scipy-highs"
        assert event.data["variables"] > 0
        assert event.data["constraints"] > 0
        assert event.data["wall_seconds"] >= 0
        hist = obs.metrics.histogram("lp.solve_seconds.prospector-lp-no-lf")
        assert hist.count == 1

    def test_collection_depth_breakdown_sums_to_totals(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        for __ in range(4):
            engine.feed_sample(field.sample(rng))
        engine.query(field.sample(rng))
        (collect,) = obs.spans.find("collect")  # the only collection

        def by_depth(family):
            return [
                counter.value
                for name, counter in obs.metrics.counters.items()
                if name.startswith(f"sim.{family}.depth")
            ]

        assert by_depth("messages")  # a non-trivial plan crosses an edge
        assert sum(by_depth("messages")) == collect.attributes["messages"]
        assert collect.attributes["messages"] == (
            obs.metrics.counter("sim.messages").value
        )
        # per-depth energy covers the messages; the span total also
        # includes trigger + acquisition extras, so it is strictly more
        message_energy = sum(by_depth("energy_mj"))
        assert 0 < message_energy < collect.attributes["energy_mj"]
        assert collect.attributes["energy_mj"] == (
            obs.metrics.counter("sim.energy_mj").value
        )

    def test_declined_replan_is_counted_and_retried(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(
            topology, instrumentation=obs,
            replan_every=2, replan_improvement=1e9,
        )
        # exploit-only: zero the floor too, or accuracy feedback
        # (max(base_rate, rate * decay)) restores exploration
        engine.sampler.rate = 0.0
        engine.sampler.base_rate = 0.0
        for __ in range(5):
            engine.feed_sample(field.sample(rng))
        outcomes = [engine.step(field.sample(rng)) for __ in range(5)]
        assert all(o.action == "query" for o in outcomes)
        # step 1 installs the initial plan (clock 0); the clock reaches
        # replan_every=2 on step 3.  The impossible threshold declines
        # every candidate, and a declined candidate must NOT reset the
        # clock, so steps 3, 4, AND 5 all re-attempt — the pre-fix code
        # reset the clock on decline and would only re-attempt on step 5.
        assert obs.metrics.counter("engine.replans_skipped").value == 3
        assert len(obs.trace.events("replan_skipped")) == 3
        assert engine._queries_since_replan == 4

    def test_energy_counters_match_engine_total(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        engine.feed_sample(field.sample(rng), charge_energy=True)
        for __ in range(6):
            engine.step(field.sample(rng))
        engine.audit(field.sample(rng))
        assert obs.metrics.counter("engine.energy_mj").value == (
            pytest.approx(engine.total_energy_mj)
        )
        categories = sum(
            obs.metrics.counter(f"engine.energy_mj.{cat}").value
            for cat in ("sample", "query", "install", "audit")
        )
        assert categories == pytest.approx(engine.total_energy_mj)

    def test_audit_records_event(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        for __ in range(6):
            engine.feed_sample(field.sample(rng))
        result = engine.audit(field.sample(rng))
        event = obs.trace.events("audit_run")[0]
        assert event.data["estimated_accuracy"] == result.estimated_accuracy
        assert event.data["audit_energy_mj"] == result.audit_energy_mj

    def test_failure_observations_recorded(self, setting):
        from repro.network.failures import LinkFailureModel

        rng, topology, field = setting
        obs = Instrumentation()
        failures = LinkFailureModel.uniform(
            topology, probability=0.6, reroute_extra_mj=1.0
        )
        engine = TopKEngine(
            topology,
            EnergyModel.mica2(),
            k=4,
            planner=LPNoLFPlanner(),
            config=EngineConfig(budget_mj=60.0),
            failures=failures,
            rng=np.random.default_rng(1),
            instrumentation=obs,
        )
        for __ in range(5):
            engine.feed_sample(field.sample(rng))
        for __ in range(10):
            engine.query(field.sample(rng))
        observed = obs.metrics.counter("engine.failures_observed").value
        assert observed > 0
        assert len(obs.trace.events("failure_observed")) == observed


class TestDisabledInstrumentation:
    def test_default_is_none_everywhere(self, setting):
        __, topology, __ = setting
        engine = make_engine(topology)
        assert engine.instrumentation is None
        assert engine.simulator.instrumentation is None

    def test_disabled_run_matches_enabled_run(self, setting):
        rng, topology, field = setting
        samples = [field.sample(rng) for __ in range(10)]

        def run(instrumentation):
            engine = make_engine(topology, instrumentation=instrumentation)
            for reading in samples[:4]:
                engine.feed_sample(reading)
            outcomes = [engine.step(r) for r in samples[4:]]
            return engine.total_energy_mj, [o.action for o in outcomes]

        assert run(None) == run(Instrumentation())

    def test_noop_helpers_allocate_nothing(self):
        # the shared singleton IS the disabled fast path: no fresh
        # objects, no events, no exceptions
        assert maybe_timer(None, "anything") is NULL_TIMER
        assert maybe_timer(None, "other") is NULL_TIMER
        with maybe_timer(None, "x") as timer:
            assert timer is NULL_TIMER
        assert record_event(None, "lp_solve", ignored=1) is None

    def test_planner_path_untimed_when_disabled(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        # same planner instance, two contexts: only the instrumented
        # context records anything
        from repro.planners.base import PlanningContext

        planner = LPNoLFPlanner()
        window = [field.sample(rng) for __ in range(5)]
        from repro.sampling.window import SampleWindow

        win = SampleWindow(10)
        for row in window:
            win.add(row)
        base = dict(
            topology=topology, energy=EnergyModel.mica2(),
            samples=win.matrix(4), k=4, budget=40.0,
        )
        planner.plan(PlanningContext(**base))
        assert obs.metrics.histograms == {}
        planner.plan(PlanningContext(**base, instrumentation=obs))
        assert obs.metrics.counter("plan.builds.lp-no-lf").value == 1


class TestSweepInstrumentation:
    """Ladder telemetry from ``solve_batch``: the pure simplex's warm
    sweep records lp.sweep.* and an lp_sweep event, the HiGHS cold
    ladder an lp_batch event and no warm starts."""

    def _sweep(self, backend_cls):
        from repro.lp.fastbuild import compile_lp_lf_parametric
        from tests.lp.test_fastbuild import make_context

        obs = Instrumentation()
        context = make_context(1, 10, 6, 3)
        backend = backend_cls(instrumentation=obs)
        parametric = compile_lp_lf_parametric(context)
        budgets = [context.budget * f for f in (0.8, 1.0, 1.3, 1.7)]
        members = backend.solve_batch(parametric, parametric.rhs_values(budgets))
        return obs, members

    def test_simplex_sweep_counters_and_event(self):
        from repro.lp import SimplexBackend

        obs, members = self._sweep(SimplexBackend)
        assert obs.metrics.counter("lp.sweep.solves").value == 1
        assert obs.metrics.counter("lp.sweep.members").value == len(members)
        warm = sum(1 for m in members if m.stats.warm_started)
        assert obs.metrics.counter("lp.sweep.warm_hits").value == warm
        assert warm >= 1
        assert obs.metrics.counter("lp.warm_starts").value == warm
        event = obs.trace.events("lp_sweep")[0]
        assert event.data["model"] == "prospector-lp-lf"
        assert event.data["members"] == len(members)
        assert event.data["warm_hits"] == warm
        assert event.data["seconds"] >= 0
        hist = obs.metrics.histogram("lp.sweep.seconds.prospector-lp-lf")
        assert hist.count == 1
        # every member still records an ordinary lp_solve event too
        solves = obs.trace.events("lp_solve")
        assert len(solves) == len(members)
        assert solves[0].data["warm_started"] is False
        assert any(e.data["warm_started"] for e in solves[1:])

    def test_scipy_sweep_counts_no_warm_hits(self):
        from repro.lp import ScipyBackend

        obs, members = self._sweep(ScipyBackend)
        assert obs.metrics.counter("lp.warm_starts").value == 0
        assert obs.metrics.counter("lp.solves").value == len(members)
        assert obs.trace.events("lp_sweep") == []
        assert obs.trace.events("lp_batch")[0].data["members"] == len(members)

    def test_record_lp_solve_tuple_compat(self):
        """Stats objects without the new fields still record cleanly."""
        class LegacyStats:
            backend = "legacy"
            wall_seconds = 0.01
            iterations = 3
            num_variables = 2
            num_constraints = 1

        obs = Instrumentation()
        obs.record_lp_solve("legacy-model", LegacyStats())
        event = obs.trace.events("lp_solve")[0]
        assert event.data["warm_started"] is False
        assert event.data["pivots"] == 0
        assert obs.metrics.counter("lp.warm_starts").value == 0
