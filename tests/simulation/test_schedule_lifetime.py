"""Where compiled collection schedules live, and when they die.

A plan's :class:`~repro.plans.execution.CollectionSchedule` (and the
pricing cached beside it) is an attribute of the plan: it is freed
with the plan, pickling leaves it out, and neither the simulator nor
the engine keeps a map from plans to schedules.  The simulator builds
its full-collection plan once per topology.
"""

import gc
import pickle
import sys
import threading
import weakref
from collections.abc import Mapping

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.obs import EnergyLedger, Instrumentation
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.plans.plan import QueryPlan
from repro.query.engine import EngineConfig, TopKEngine
from repro.simulation.runtime import Simulator
from tests.simulation._collection_oracle import oracle_run_collection

MICA2 = EnergyModel.mica2()


@pytest.fixture
def network():
    rng = np.random.default_rng(21)
    topology = random_topology(20, rng=rng, radio_range=40.0)
    return topology, random_gaussian_field(20, rng), rng


def _count_full_plans(monkeypatch) -> list:
    """Patch :meth:`QueryPlan.full` to record each topology it builds for."""
    built = []
    original = QueryPlan.full.__func__

    def counting(cls, topology):
        built.append(topology)
        return original(cls, topology)

    monkeypatch.setattr(QueryPlan, "full", classmethod(counting))
    return built


def test_dropped_plan_frees_its_schedule(network):
    topology, field, rng = network
    simulator = Simulator(
        topology, MICA2,
        instrumentation=Instrumentation(), ledger=EnergyLedger(topology.n),
    )
    plan = QueryPlan.naive_k(topology, 3)
    report = simulator.run_collection(plan, field.sample(rng))
    schedule = weakref.ref(plan.schedule)
    assert MICA2 in plan.schedule.pricing
    del plan, report
    # no reference cycle: the schedule goes with its plan's last reference
    assert schedule() is None


def test_pickled_plan_leaves_its_schedule_out(network):
    topology, field, rng = network
    plan = QueryPlan.naive_k(topology, 3)
    readings = field.sample(rng)
    before = Simulator(topology, MICA2).run_collection(plan, readings)
    state = plan.__getstate__()
    assert state["_schedule"] is None
    assert plan._schedule is not None  # the live plan keeps its own
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.bandwidths == plan.bandwidths and clone._schedule is None
    after = Simulator(clone.topology, MICA2).run_collection(clone, readings)
    assert after.returned == before.returned
    assert after.energy_mj == before.energy_mj


def test_no_per_plan_map_in_simulator_or_engine(network):
    topology, field, rng = network
    engine = TopKEngine(
        topology, MICA2, k=3, planner=LPNoLFPlanner(),
        config=EngineConfig(budget_mj=25.0, replan_every=1,
                            replan_improvement=-1.0),
        rng=np.random.default_rng(4),
        instrumentation=Instrumentation(),
        ledger=EnergyLedger(topology.n),
    )
    for __ in range(6):
        engine.feed_sample(field.sample(rng))
    schedules = []
    for __ in range(12):
        engine.feed_sample(field.sample(rng), charge_energy=True)
        engine.query(field.sample(rng))
        schedules.append(weakref.ref(engine.plan.schedule))
        plan = QueryPlan.from_chosen_nodes(
            topology, rng.choice(topology.n, size=4, replace=False).tolist()
        )
        engine.simulator.run_collection(plan, field.sample(rng))
        schedules.append(weakref.ref(plan.schedule))
        del plan
    for owner in (engine, engine.simulator):
        assert not any(
            isinstance(value, Mapping) for value in vars(owner).values()
        ), type(owner).__name__
    gc.collect()
    # every plan the loop dropped took its schedule with it
    assert [ref for ref in schedules[1::2] if ref() is not None] == []


def test_full_sample_builds_one_full_plan(network, monkeypatch):
    topology, field, rng = network
    built = _count_full_plans(monkeypatch)
    simulator = Simulator(topology, MICA2, ledger=EnergyLedger(topology.n))
    readings = field.trace(10, rng).values
    for index in range(1000):
        simulator.collect_full_sample(readings[index % 10])
    simulator.run_naive_k(readings[0], 3)
    assert built == [topology]
    assert simulator.ledger.num_epochs == 1001


def test_permanent_failure_gets_a_fresh_full_plan(network, monkeypatch):
    topology, field, rng = network
    built = _count_full_plans(monkeypatch)
    engine = TopKEngine(
        topology, MICA2, k=3, planner=LPNoLFPlanner(),
        config=EngineConfig(budget_mj=25.0),
        rng=np.random.default_rng(0),
    )
    for __ in range(3):
        engine.feed_sample(field.sample(rng), charge_energy=True)
    assert built == [topology]
    engine.handle_permanent_failure(5)
    assert engine.topology is not topology
    sample = field.sample(rng)[: engine.topology.n]
    full = engine.simulator.collect_full_sample(sample)
    assert built == [topology, engine.topology]
    assert {node for __, node in full.returned} == set(engine.topology.nodes)


def test_threads_sharing_a_fresh_plan_charge_identically(network):
    """Service sessions share plans across executor threads, so several
    may compile one plan's schedule and pricing at once; every thread
    must still report and charge exactly what the oracle does."""
    topology, field, rng = network
    readings = field.trace(20, rng).values
    plan = QueryPlan.from_chosen_nodes(topology, range(0, topology.n, 3))
    reference = Simulator(topology, MICA2, ledger=EnergyLedger(topology.n))
    want = [oracle_run_collection(reference, plan, row) for row in readings]
    simulators = [
        Simulator(topology, MICA2, ledger=EnergyLedger(topology.n))
        for __ in range(8)
    ]
    reports: dict[int, list] = {}
    start = threading.Barrier(len(simulators))

    def serve(index: int) -> None:
        start.wait(timeout=10)
        reports[index] = [
            simulators[index].run_collection(plan, row) for row in readings
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=serve, args=(i,))
            for i in range(len(simulators))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(reports) == list(range(len(simulators)))
    for index, simulator in enumerate(simulators):
        got = reports[index]
        assert [r.returned for r in got] == [r.returned for r in want]
        assert [r.energy_mj for r in got] == [r.energy_mj for r in want]
        assert simulator.ledger.energy_mj.tobytes() == (
            reference.ledger.energy_mj.tobytes()
        )
        assert simulator.ledger.num_epochs == len(readings)
