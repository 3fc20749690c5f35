"""Compiled collection schedules vs the schedule-free oracle.

:func:`~repro.plans.execution.execute_plan` walks a plan's compiled
:class:`~repro.plans.execution.CollectionSchedule`, and
:meth:`~repro.simulation.runtime.Simulator.run_collection` charges its
cached :class:`~repro.simulation.runtime.CollectionPricing`.  Both must
agree *bitwise* with the tuple walk and per-message charge in
``_collection_oracle``: returned readings, energies, message logs,
transmitted counts, ledger arrays and epoch rows, ``sim.*`` counters,
events, edge outcomes and the rng state after a run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger, Instrumentation
from repro.plans.execution import execute_plan
from repro.plans.plan import QueryPlan
from repro.simulation.runtime import Simulator
from tests.conftest import tree_plan_readings
from tests.simulation._collection_oracle import (
    oracle_execute_plan,
    oracle_run_collection,
)

MODELS = (
    EnergyModel.mica2(),
    EnergyModel(per_message_mj=0.7, value_bytes=6, acquisition_mj=0.013),
)


@st.composite
def scenarios(draw):
    topology, bandwidths, readings = draw(tree_plan_readings(max_nodes=14))
    more = draw(
        st.lists(
            st.lists(
                st.integers(min_value=-6, max_value=6),
                min_size=topology.n, max_size=topology.n,
            ),
            max_size=2,
        )
    )
    target = draw(st.none() | st.integers(min_value=-8, max_value=8))
    return {
        "topology": topology,
        "plan": QueryPlan(topology, bandwidths),
        "epochs": [readings] + [[float(v) for v in row] for row in more],
        # distance to a target ties readings on either side of it
        "priority": (
            None if target is None
            else (lambda reading, t=target: -abs(reading[0] - t))
        ),
        "include_trigger": draw(st.booleans()),
        "energy": draw(st.sampled_from(MODELS)),
        "failures": draw(st.booleans()),
        "ledger": draw(st.booleans()),
        "instrumented": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _simulator(case) -> Simulator:
    topology = case["topology"]
    failures = (
        LinkFailureModel.random(
            topology, np.random.default_rng(case["seed"] + 1),
            max_probability=0.5,
        )
        if case["failures"] else None
    )
    return Simulator(
        topology,
        case["energy"],
        failures=failures,
        rng=np.random.default_rng(case["seed"]),
        instrumentation=Instrumentation() if case["instrumented"] else None,
        ledger=EnergyLedger(topology.n) if case["ledger"] else None,
    )


def _assert_reports_equal(got, want):
    assert got.returned == want.returned
    assert got.energy_mj == want.energy_mj
    assert got.num_messages == want.num_messages
    assert got.num_values_sent == want.num_values_sent
    assert got.num_retries == want.num_retries
    assert got.proven_count == want.proven_count
    assert got.edge_outcomes == want.edge_outcomes
    assert got.detail.returned == want.detail.returned
    assert got.detail.messages == want.detail.messages
    assert got.detail.transmitted == want.detail.transmitted


def _bits(array: np.ndarray) -> tuple:
    return (array.dtype.str, array.shape, array.tobytes())


def _assert_state_equal(got: Simulator, want: Simulator):
    assert got.rng.bit_generator.state == want.rng.bit_generator.state
    if want.ledger is not None:
        for name in ("energy_mj", "messages", "bytes"):
            assert _bits(getattr(got.ledger, name)) == _bits(
                getattr(want.ledger, name)
            )
        assert [_bits(row) for row in got.ledger.epoch_energy] == [
            _bits(row) for row in want.ledger.epoch_energy
        ]
    if want.instrumentation is not None:
        def sim_counters(obs):
            return [
                (name, counter.value)
                for name, counter in obs.metrics.counters.items()
                if name.startswith("sim.")
            ]

        def collections(obs):
            return [span.attributes for span in obs.spans.find("collect")]

        assert sim_counters(got.instrumentation) == sim_counters(
            want.instrumentation
        )
        assert collections(got.instrumentation) == collections(
            want.instrumentation
        )


@settings(max_examples=250, deadline=None)
@given(case=tree_plan_readings(max_nodes=14), target=st.integers(-60, 60))
def test_execute_plan_matches_oracle(case, target):
    topology, bandwidths, readings = case
    plan = QueryPlan(topology, bandwidths)
    for priority in (None, lambda reading: -abs(reading[0] - target)):
        want = oracle_execute_plan(plan, readings, priority=priority)
        for vector in (readings, np.asarray(readings, dtype=np.float64)):
            got = execute_plan(plan, vector, priority=priority)
            assert got.returned == want.returned
            assert all(type(value) is float for value, __ in got.returned)
            assert got.messages == want.messages
            assert got.transmitted == want.transmitted


@settings(max_examples=200, deadline=None)
@given(case=scenarios())
def test_run_collection_matches_oracle_bitwise(case):
    fast, slow = _simulator(case), _simulator(case)
    plan = case["plan"]
    for readings in case["epochs"]:
        _assert_reports_equal(
            fast.run_collection(
                plan, readings,
                include_trigger=case["include_trigger"],
                priority=case["priority"],
            ),
            oracle_run_collection(
                slow, plan, readings,
                include_trigger=case["include_trigger"],
                priority=case["priority"],
            ),
        )
        # after every collection: the cumulative sim.* counters then
        # pin each collection's per-depth breakdown, not just the sum
        _assert_state_equal(fast, slow)
        _assert_reports_equal(
            fast.collect_full_sample(readings),
            oracle_run_collection(
                slow, QueryPlan.full(case["topology"]), readings,
                label="full-sample",
            ),
        )
        _assert_state_equal(fast, slow)


def test_failure_draws_interleave_with_retries():
    """Certain and impossible edges: the per-message loop must draw once
    per unicast, in message order, and charge each retry to the ledger
    and the per-depth counters."""
    topology = Topology([-1, 0, 0, 1, 1, 2, 5, 5])
    case = {
        "topology": topology, "energy": MODELS[1], "failures": False,
        "ledger": True, "instrumented": True, "seed": 9,
    }
    fast, slow = _simulator(case), _simulator(case)
    fast.failures = slow.failures = LinkFailureModel(
        failure_probability={e: float(e % 2) for e in topology.edges},
        reroute_extra_mj={e: 0.25 * e for e in topology.edges},
    )
    plan = QueryPlan.naive_k(topology, 2)
    readings_rng = np.random.default_rng(3)
    for __ in range(3):
        readings = readings_rng.integers(-3, 4, size=topology.n).astype(float)
        got = fast.run_collection(plan, readings)
        want = oracle_run_collection(slow, plan, readings)
        assert got.num_retries == want.num_retries > 0
        _assert_reports_equal(got, want)
        _assert_state_equal(fast, slow)
