"""Unit tests for the simulator's energy accounting."""

import itertools
import warnings

import numpy as np
import pytest

from repro.network.builder import line_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.obs import Instrumentation
from repro.plans.plan import QueryPlan, top_k_set
from repro.simulation import batch, runtime
from repro.simulation.batch import BatchSimulator
from repro.simulation.runtime import Simulator

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.5)


@pytest.fixture
def simulator(medium_random):
    return Simulator(medium_random, UNIFORM)


class TestEnergyAccounting:
    def test_measured_cost_at_most_static(self, medium_random, simulator, rng):
        """Static cost budgets the worst case; the measured cost of the
        collection itself can only be lower (subtrees may carry less)."""
        readings = rng.normal(size=medium_random.n)
        plan = QueryPlan.naive_k(medium_random, 5)
        report = simulator.run_collection(plan, readings, include_trigger=False)
        assert report.energy_mj <= plan.static_cost(UNIFORM) + 1e-9

    def test_full_plan_measured_equals_static(self, medium_random, simulator, rng):
        """With full bandwidth everywhere, every edge carries exactly
        its subtree, so measured == static."""
        readings = rng.normal(size=medium_random.n)
        plan = QueryPlan.full(medium_random)
        report = simulator.run_collection(plan, readings, include_trigger=False)
        assert report.energy_mj == pytest.approx(plan.static_cost(UNIFORM))

    def test_trigger_adds_energy(self, medium_random, simulator, rng):
        readings = rng.normal(size=medium_random.n)
        plan = QueryPlan.naive_k(medium_random, 3)
        bare = simulator.run_collection(plan, readings, include_trigger=False)
        with_trigger = simulator.run_collection(plan, readings)
        assert with_trigger.energy_mj > bare.energy_mj

    def test_message_and_value_counts(self):
        topo = line_topology(3)
        simulator = Simulator(topo, UNIFORM)
        plan = QueryPlan.full(topo)
        report = simulator.run_collection(plan, [1.0, 2.0, 3.0],
                                          include_trigger=False)
        assert report.num_messages == 2
        assert report.num_values_sent == 3  # 1 + 2
        assert report.energy_mj == pytest.approx(2 * 1.0 + 3 * 0.5)

    def test_naive_runs_report_answers(self, medium_random, simulator, rng):
        readings = rng.normal(size=medium_random.n)
        truth = top_k_set(readings, 4)
        assert simulator.run_naive_k(readings, 4).top_k_nodes(4) == truth
        assert simulator.run_naive_one(readings, 4).top_k_nodes(4) == truth

    def test_proof_collection_reports_proven(self, medium_random, simulator, rng):
        readings = rng.normal(size=medium_random.n)
        report = simulator.run_proof_collection(
            QueryPlan.full(medium_random), readings
        )
        assert report.proven_count == medium_random.n

    def test_collect_full_sample(self, medium_random, simulator, rng):
        readings = rng.normal(size=medium_random.n)
        report = simulator.collect_full_sample(readings)
        assert {n for __, n in report.returned} == set(medium_random.nodes)

    def test_install_cost_positive(self, medium_random, simulator):
        plan = QueryPlan.naive_k(medium_random, 2)
        assert simulator.install_cost(plan) > 0


class TestFailures:
    def test_reliable_network_never_retries(self, medium_random, rng):
        simulator = Simulator(medium_random, UNIFORM)
        readings = rng.normal(size=medium_random.n)
        report = simulator.run_collection(QueryPlan.full(medium_random), readings)
        assert report.num_retries == 0

    def test_certain_failure_always_retries(self, rng):
        topo = line_topology(4)
        failures = LinkFailureModel.uniform(topo, probability=1.0,
                                            reroute_extra_mj=2.0)
        simulator = Simulator(topo, UNIFORM, failures=failures, rng=rng)
        plan = QueryPlan.full(topo)
        report = simulator.run_collection(plan, [1, 2, 3, 4], include_trigger=False)
        assert report.num_retries == report.num_messages
        # each retry pays the message again plus the re-route penalty
        reliable = Simulator(topo, UNIFORM).run_collection(
            plan, [1, 2, 3, 4], include_trigger=False
        )
        assert report.energy_mj == pytest.approx(
            2 * reliable.energy_mj + 2.0 * report.num_messages
        )

    def test_partial_failure_statistics(self):
        topo = line_topology(2)
        failures = LinkFailureModel.uniform(topo, probability=0.3,
                                            reroute_extra_mj=0.0)
        simulator = Simulator(topo, UNIFORM, failures=failures,
                              rng=np.random.default_rng(11))
        plan = QueryPlan.full(topo)
        retries = sum(
            simulator.run_collection(plan, [1.0, 2.0]).num_retries
            for __ in range(2000)
        )
        assert 0.25 < retries / 2000 < 0.35


class TestConstruction:
    """Everything after ``(topology, energy)`` is keyword-only."""

    @pytest.mark.parametrize("simulator_cls", [Simulator, BatchSimulator])
    def test_simulator_keywords_are_silent(self, simulator_cls):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulator = simulator_cls(
                line_topology(4),
                EnergyModel.mica2(),
                failures=None,
                rng=np.random.default_rng(5),
            )
        assert caught == []
        assert simulator.failures is None

    @pytest.mark.parametrize("simulator_cls", [Simulator, BatchSimulator])
    def test_simulator_rejects_positional_tail(self, simulator_cls):
        with pytest.raises(TypeError):
            simulator_cls(line_topology(4), EnergyModel.mica2(), None)


class TestCollectSpan:
    """The ``collect`` span times the walk over the tree, not just the
    charge that follows it."""

    @pytest.mark.parametrize(
        "module, walk, simulator_cls",
        [
            (runtime, "execute_plan", Simulator),
            (batch, "execute_plan_batch", BatchSimulator),
        ],
        ids=["scalar", "batch"],
    )
    def test_walk_runs_inside_the_span(
        self, medium_random, rng, monkeypatch, module, walk, simulator_cls
    ):
        ticks = itertools.count()
        obs = Instrumentation(clock=lambda: float(next(ticks)))
        walked = []
        real_walk = getattr(module, walk)

        def timed_walk(*args, **kwargs):
            walked.append(obs.clock())
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(module, walk, timed_walk)
        simulator = simulator_cls(medium_random, UNIFORM, instrumentation=obs)
        readings = rng.normal(size=(2, medium_random.n))
        if simulator_cls is Simulator:
            readings = readings[0]
        simulator.run_collection(QueryPlan.full(medium_random), readings)
        (span,) = obs.spans.find("collect")
        (walked_at,) = walked
        assert span.start_s < walked_at < span.end_s
