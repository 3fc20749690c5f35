"""Integration: an instrumented end-to-end engine run leaves the
expected spans and counters, each former event kind in exactly one
place, and disabled instrumentation (None) leaves behavior untouched
with the shared no-op fast path."""

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.obs import NULL_SPAN, Instrumentation, maybe_span, record_event
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
        # a fed row is a bound counter, not a record of its own
        assert obs.metrics.counter("engine.samples.feed").value == 5
        assert obs.metrics.counter("engine.samples").value == 5
        assert len(obs.spans) == 0
        engine.query(field.sample(rng))

        # the first query plans (plan → compile → solve → round), then
        # installs it (the one instant), then runs one collection,
        # whose record is its ``collect`` span
        names = [root.name for root in obs.spans.roots]
        assert names == ["plan", "plan_installed", "collect"]
        (installed,) = obs.spans.find("plan_installed")
        assert installed.duration_s == 0.0
        assert installed.attributes["reason"] == "initial"
        assert installed.attributes["install_mj"] > 0
        assert obs.metrics.counter("events.plan_installed").value == 1
        (collect,) = obs.spans.find("collect")
        assert collect.attributes["label"] == "collection"
        assert installed.start_s <= collect.start_s

    def test_lp_solve_event_carries_solver_stats(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        for __ in range(4):
            engine.feed_sample(field.sample(rng))
        engine.ensure_plan()
        (solve,) = obs.spans.find("solve")
        assert solve.attributes["model"] == "prospector-lp-no-lf"
        assert solve.attributes["backend"] == "scipy-highs"
        assert solve.attributes["iterations"] >= 0
        assert solve.attributes["variables"] > 0
        assert solve.attributes["constraints"] > 0
        assert obs.metrics.counter("lp.solves").value == 1
        assert "events.lp_solve" not in obs.metrics.counters
        hist = obs.metrics.histogram("lp.solve_seconds.prospector-lp-no-lf")
        assert hist.count == 1
        assert hist.total >= 0

    def test_plan_built_is_attributes_of_the_plan_span(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        for __ in range(4):
            engine.feed_sample(field.sample(rng))
        plan = engine.ensure_plan()
        (span,) = obs.spans.find("plan")
        assert span.attributes == {
            "planner": "lp-no-lf",
            "edges_used": len(plan.used_edges),
            "static_cost_mj": engine._context().plan_cost(plan),
            "budget_mj": 40.0,
        }
        # the build histogram is the span's own duration: one clock
        hist = obs.metrics.histogram("plan.build_seconds.lp-no-lf")
        assert (hist.count, hist.total) == (1, span.duration_s)
        assert obs.metrics.counter("plan.builds").value == 1
        assert "events.plan_built" not in obs.metrics.counters

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
        decisions = obs.spans.find("replan.decide")
        assert len(decisions) == 3
        for decision in decisions:
            attributes = decision.attributes
            assert attributes["installed"] is False
            assert attributes["threshold"] == pytest.approx(
                attributes["current_hits"] * (1.0 + 1e9)
            )
            assert attributes["candidate_hits"] <= attributes["threshold"]
            assert "install_mj" not in attributes
        assert "events.replan_skipped" not in obs.metrics.counters
        assert engine._queries_since_replan == 4

    def test_installed_replan_is_attributes_of_its_decision(self, setting):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(
            topology, instrumentation=obs, replan_improvement=-1.0,
        )
        for __ in range(5):
            engine.feed_sample(field.sample(rng))
        engine.ensure_plan()
        assert engine.maybe_replan()
        (decision,) = obs.spans.find("replan.decide")
        attributes = decision.attributes
        assert attributes["installed"] is True
        assert attributes["candidate_hits"] > attributes["threshold"]
        assert attributes["edges_used"] == len(engine.plan.used_edges)
        assert attributes["install_mj"] == (
            engine.simulator.install_cost(engine.plan)
        )
        # only the initial install is an instant
        (installed,) = obs.spans.find("plan_installed")
        assert installed.attributes["reason"] == "initial"
        assert obs.metrics.counter("events.plan_installed").value == 1

    def test_explore_sample_is_a_counter_and_an_epoch_attribute(
        self, setting
    ):
        rng, topology, field = setting
        obs = Instrumentation()
        engine = make_engine(topology, instrumentation=obs)
        engine.sampler.rate = 1.0  # every epoch explores
        outcomes = [engine.step(field.sample(rng)) for __ in range(3)]
        assert [o.action for o in outcomes] == ["sample"] * 3
        epochs = obs.spans.find("epoch")
        assert [e.attributes["rate"] for e in epochs] == [
            o.notes["rate"] for o in outcomes
        ]
        assert obs.metrics.counter("engine.samples.explore").value == 3
        assert obs.metrics.counter("engine.samples").value == 3
        assert "engine.samples.feed" not in obs.metrics.counters
        # no instant and no child: each epoch span carries its sample's
        # collection as attributes
        assert {span.name for span, __ in obs.spans.walk()} == {"epoch"}
        assert [
            (e.attributes["label"], e.attributes["energy_mj"]) for e in epochs
        ] == [("full-sample", o.energy_mj) for o in outcomes]

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
        (instant,) = obs.spans.find("audit_run")
        assert instant.duration_s == 0.0
        assert instant.attributes == {
            "estimated_accuracy": result.estimated_accuracy,
            "audit_energy_mj": result.audit_energy_mj,
            "budget_factor": 1.25,
        }
        assert obs.metrics.counter("events.audit_run").value == 1

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
        # one occurrence, one counter: the event's own
        observed = obs.metrics.counters["events.failure_observed"].value
        assert observed > 0
        assert "engine.failures_observed" not in obs.metrics.counters
        instants = obs.spans.find("failure_observed")
        assert len(instants) == observed
        # each lands under the collection's failure-filter update
        for span, __ in obs.spans.walk():
            if span.name == "filter.update":
                assert all(
                    child.name == "failure_observed" for child in span.children
                )
        assert all(
            failures.failure_probability.get(s.attributes["edge"])
            is not None
            for s in instants
        )


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
        # objects, no instants, no exceptions
        assert maybe_span(None, "anything") is NULL_SPAN
        assert maybe_span(None, "other", tag=1) is NULL_SPAN
        with maybe_span(None, "x") as span:
            assert span is NULL_SPAN
        assert record_event(None, "audit_run", ignored=1) is None

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
    """Ladder telemetry from ``solve_batch``: the HiGHS ladder is one
    ``batch.solve`` span over one ``solve`` span per member, counts
    every member after the first as a warm start, and records no
    instant."""

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

    def test_scipy_sweep_counts_warm_hits(self):
        from repro.lp import ScipyBackend

        obs, members = self._sweep(ScipyBackend)
        assert obs.metrics.counter("lp.warm_starts").value == len(members) - 1
        assert obs.metrics.counter("lp.solves").value == len(members)
        ((batch, solves),) = [
            (root, root.children) for root in obs.spans.roots
            if root.name == "batch.solve"
        ]
        assert batch.attributes == {
            "model": "prospector-lp-lf",
            "backend": "scipy-highs",
            "members": len(members),
        }
        assert [s.name for s in solves] == ["solve"] * len(members)
        assert obs.metrics.counter("lp.batch.members").value == len(members)
        hist = obs.metrics.histogram("lp.batch.seconds.prospector-lp-lf")
        assert (hist.count, hist.total) == (1, batch.duration_s)
        assert not any(
            name.startswith("events.") for name in obs.metrics.counters
        )

    def test_record_lp_solve_tuple_compat(self):
        """Any object with the five SolveStats fields records cleanly,
        as a cold solve, and the record carries no warm-start fields."""
        class LegacyStats:
            backend = "legacy"
            wall_seconds = 0.01
            iterations = 3
            num_variables = 2
            num_constraints = 1

        obs = Instrumentation()
        with obs.span("solve", model="legacy-model") as span:
            pass
        obs.record_lp_solve(span, "legacy-model", LegacyStats())
        assert span.attributes == {
            "model": "legacy-model",
            "variables": 2,
            "constraints": 1,
        }
        assert obs.metrics.counter("lp.solves").value == 1
        assert obs.metrics.counter("lp.iterations").value == 3
        # the histogram is the span's own duration, not the solver's
        # wall_seconds: one clock
        hist = obs.metrics.histogram("lp.solve_seconds.legacy-model")
        assert (hist.count, hist.total) == (1, span.duration_s)
        assert obs.metrics.counter("lp.warm_starts").value == 0

    def test_record_lp_solve_counts_duck_typed_warm_stats(self):
        class WarmStats:
            backend = "legacy"
            wall_seconds = 0.01
            iterations = 3
            num_variables = 2
            num_constraints = 1
            warm_started = True

        obs = Instrumentation()
        with obs.span("solve", model="legacy-model") as span:
            pass
        obs.record_lp_solve(span, "legacy-model", WarmStats())
        assert obs.metrics.counter("lp.warm_starts").value == 1
        assert "warm_started" not in span.attributes
