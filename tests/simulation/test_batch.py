"""BatchSimulator vs the scalar Simulator: the equivalence suite.

The batch engine must be bit-compatible with the reference oracle:
identical node sets, energies within 1e-9 relative tolerance, and —
under the shared-draw seed discipline — exactly the same failure
retries, epoch by epoch and edge by edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.obs import EnergyLedger, Instrumentation
from repro.plans.execution import bandwidth_vector
from repro.plans.plan import QueryPlan
from repro.query.accuracy import accuracy
from repro.simulation.batch import BatchSimulator
from repro.simulation.runtime import Simulator
from tests.conftest import tree_plan_readings, tree_with_readings
from tests.simulation._collection_oracle import naive_k_by_recursion

MICA2 = EnergyModel.mica2()


@pytest.fixture
def workload():
    rng = np.random.default_rng(11)
    topology = random_topology(30, rng=rng)
    plan = QueryPlan.from_chosen_nodes(
        topology, set(rng.choice(topology.n, size=12, replace=False).tolist())
    )
    trace = rng.normal(size=(9, topology.n))
    return topology, plan, trace


def _scalar_reports(topology, plan, trace, failures=None, seed=None):
    simulator = Simulator(
        topology, MICA2, failures=failures,
        rng=np.random.default_rng(seed),
    )
    return [simulator.run_collection(plan, readings) for readings in trace]


def test_collection_equivalence(workload):
    topology, plan, trace = workload
    scalar = _scalar_reports(topology, plan, trace)
    batch = BatchSimulator(topology, MICA2).run_collection(plan, trace)
    assert batch.num_epochs == len(trace)
    assert batch.num_messages == scalar[0].num_messages
    assert batch.num_values_sent == scalar[0].num_values_sent
    np.testing.assert_allclose(
        batch.energy_mj, [r.energy_mj for r in scalar], rtol=1e-9
    )
    for epoch, report in enumerate(scalar):
        assert batch.top_k_node_sets(5)[epoch] == report.top_k_nodes(5)
        assert [
            (float(v), int(u))
            for v, u in zip(
                batch.returned_values[epoch], batch.returned_nodes[epoch]
            )
        ] == report.returned


def test_failure_equivalence_under_shared_seed(workload):
    topology, plan, trace = workload
    failures = LinkFailureModel.random(
        topology, np.random.default_rng(5), max_probability=0.4
    )
    scalar = _scalar_reports(topology, plan, trace, failures, seed=7)
    batch = BatchSimulator(
        topology, MICA2, failures=failures, rng=np.random.default_rng(7)
    ).run_collection(plan, trace)
    assert int(batch.num_retries.sum()) > 0  # the draw actually bites
    np.testing.assert_allclose(
        batch.energy_mj, [r.energy_mj for r in scalar], rtol=1e-9
    )
    np.testing.assert_array_equal(
        batch.num_retries, [r.num_retries for r in scalar]
    )
    for epoch, report in enumerate(scalar):
        assert batch.edge_outcomes(epoch) == report.edge_outcomes


def test_edge_outcome_aggregates_match_scalar(workload):
    topology, plan, trace = workload
    failures = LinkFailureModel.uniform(
        topology, probability=0.3, reroute_extra_mj=2.0
    )
    scalar = _scalar_reports(topology, plan, trace, failures, seed=3)
    batch = BatchSimulator(
        topology, MICA2, failures=failures, rng=np.random.default_rng(3)
    ).run_collection(plan, trace)
    expected: dict[int, tuple[int, int]] = {}
    for report in scalar:
        for edge, failed in report.edge_outcomes:
            attempts, fails = expected.get(edge, (0, 0))
            expected[edge] = (attempts + 1, fails + int(failed))
    assert batch.edge_outcome_counts() == expected


@settings(max_examples=60, deadline=None)
@given(
    tree_plan_readings(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=0.9),
)
def test_retry_property(data, epochs, seed, probability):
    """Satellite property: retry counts and edge-outcome aggregates are
    identical to the scalar oracle for arbitrary plans, traces, seeds
    and failure rates."""
    topology, bandwidths, readings = data
    plan = QueryPlan(topology, bandwidths)
    trace = np.tile(np.asarray(readings, dtype=np.float64), (epochs, 1))
    failures = LinkFailureModel.uniform(
        topology, probability=probability, reroute_extra_mj=1.5
    )
    scalar = _scalar_reports(topology, plan, trace, failures, seed=seed)
    batch = BatchSimulator(
        topology, MICA2, failures=failures, rng=np.random.default_rng(seed)
    ).run_collection(plan, trace)
    np.testing.assert_array_equal(
        batch.num_retries, [r.num_retries for r in scalar]
    )
    np.testing.assert_allclose(
        batch.energy_mj, [r.energy_mj for r in scalar], rtol=1e-9
    )
    expected: dict[int, tuple[int, int]] = {}
    for report in scalar:
        for edge, failed in report.edge_outcomes:
            attempts, fails = expected.get(edge, (0, 0))
            expected[edge] = (attempts + 1, fails + int(failed))
    assert batch.edge_outcome_counts() == expected


def test_naive_k_equivalence(workload):
    topology, __, trace = workload
    simulator = Simulator(topology, MICA2)
    batch = BatchSimulator(topology, MICA2).run_naive_k(trace, k=4)
    for epoch, readings in enumerate(trace):
        report = simulator.run_naive_k(readings, 4)
        assert batch.top_k_node_sets(4)[epoch] == report.top_k_nodes(4)
        assert batch.energy_mj[epoch] == pytest.approx(
            report.energy_mj, rel=1e-9
        )


def _assert_same_naive_report(direct, replayed):
    np.testing.assert_array_equal(
        direct.returned_values, replayed.returned_values
    )
    np.testing.assert_array_equal(
        direct.returned_nodes, replayed.returned_nodes
    )
    np.testing.assert_array_equal(direct.energy_mj, replayed.energy_mj)
    np.testing.assert_array_equal(direct.num_retries, replayed.num_retries)
    np.testing.assert_array_equal(
        direct.failure_edges, replayed.failure_edges
    )
    np.testing.assert_array_equal(
        direct.failure_matrix, replayed.failure_matrix
    )
    assert direct.num_messages == replayed.num_messages
    assert direct.num_values_sent == replayed.num_values_sent
    assert direct.detail.messages == replayed.detail.messages
    assert direct.detail.transmitted == replayed.detail.transmitted


@settings(max_examples=60, deadline=None)
@given(tree_with_readings(min_nodes=1), st.integers(min_value=1, max_value=16))
def test_naive_k_direct_build_property(data, k):
    """Any tree shape, tied integer readings, ``k`` up to past ``n``."""
    topology, readings = data
    trace = np.array([readings, readings[::-1]], dtype=np.float64)
    simulator = BatchSimulator(topology, MICA2)
    _assert_same_naive_report(
        simulator.run_naive_k(trace, k),
        naive_k_by_recursion(simulator, trace, k),
    )


@pytest.mark.parametrize("k", [1, 4, 40])
def test_naive_k_with_failures_and_ledger_matches_the_recursion(
    workload, k
):
    """Same message order, so the shared seed draws the same failures
    and the ledger is charged the same per-node costs."""
    topology, __, trace = workload
    failures = LinkFailureModel.uniform(
        topology, probability=0.3, reroute_extra_mj=2.0
    )
    reports, ledgers = [], []
    for run in (BatchSimulator.run_naive_k, naive_k_by_recursion):
        ledger = EnergyLedger(topology.n, capacity_mj=200.0)
        simulator = BatchSimulator(
            topology, MICA2, failures=failures,
            rng=np.random.default_rng(3), ledger=ledger,
        )
        reports.append(run(simulator, trace, k))
        ledgers.append(ledger)
    direct, replayed = reports
    assert int(direct.num_retries.sum()) > 0  # the draw actually bites
    _assert_same_naive_report(direct, replayed)
    direct_ledger, replayed_ledger = ledgers
    np.testing.assert_array_equal(
        direct_ledger.energy_mj, replayed_ledger.energy_mj
    )
    np.testing.assert_array_equal(
        direct_ledger.messages, replayed_ledger.messages
    )
    np.testing.assert_array_equal(direct_ledger.bytes, replayed_ledger.bytes)
    np.testing.assert_array_equal(
        np.stack(direct_ledger.epoch_energy),
        np.stack(replayed_ledger.epoch_energy),
    )


def test_naive_k_rejects_bad_k_and_matrices(workload):
    topology, __, trace = workload
    simulator = BatchSimulator(topology, MICA2)
    with pytest.raises(PlanError, match="k must be"):
        simulator.run_naive_k(trace, 0)
    with pytest.raises(PlanError, match="covers"):
        simulator.run_naive_k(trace[:, :-1], 2)
    with pytest.raises(PlanError, match="at least one epoch"):
        simulator.run_naive_k(trace[:0], 2)


def test_plan_sweep_matches_per_plan_collections(workload):
    topology, __, trace = workload
    rng = np.random.default_rng(2)
    plans = [
        QueryPlan.from_chosen_nodes(
            topology,
            set(rng.choice(topology.n, size=size, replace=False).tolist()),
        )
        for size in (3, 8, 15, 29)
    ]
    simulator = BatchSimulator(topology, MICA2)
    energies = simulator.run_plan_sweep(plans)
    for plan, swept in zip(plans, energies):
        report = simulator.run_collection(plan, trace[:1])
        assert swept == pytest.approx(report.energy_mj[0], rel=1e-9)
    assert simulator.run_plan_sweep([]).shape == (0,)


def test_plan_sweep_rejects_failure_model(workload):
    topology, plan, __ = workload
    failures = LinkFailureModel.uniform(topology, 0.1, 1.0)
    simulator = BatchSimulator(topology, MICA2, failures=failures)
    with pytest.raises(PlanError, match="failure"):
        simulator.run_plan_sweep([plan])


def test_bandwidth_sweep_equals_plan_sweep(workload):
    topology, __, __trace = workload
    rng = np.random.default_rng(4)
    plans = [
        QueryPlan.from_chosen_nodes(
            topology,
            set(rng.choice(topology.n, size=size, replace=False).tolist()),
        )
        for size in (1, 5, 12, 30)
    ] + [QueryPlan.naive_k(topology, 3), QueryPlan.full(topology)]
    bandwidths = np.array([bandwidth_vector(plan) for plan in plans])
    simulator = BatchSimulator(topology, MICA2)
    for include_trigger in (True, False):
        np.testing.assert_array_equal(
            simulator.run_bandwidth_sweep(bandwidths, include_trigger),
            simulator.run_plan_sweep(plans, include_trigger),
        )
    # each row is priced on its own: one row alone gives the same energy
    np.testing.assert_array_equal(
        simulator.run_bandwidth_sweep(bandwidths[2]),
        simulator.run_bandwidth_sweep(bandwidths)[2:3],
    )
    assert simulator.run_bandwidth_sweep(
        np.zeros((0, topology.n), dtype=np.int64)
    ).shape == (0,)


def test_bandwidth_sweep_rejects_failure_model(workload):
    topology, plan, __ = workload
    failures = LinkFailureModel.uniform(topology, 0.1, 1.0)
    simulator = BatchSimulator(topology, MICA2, failures=failures)
    with pytest.raises(PlanError, match="failure"):
        simulator.run_bandwidth_sweep(bandwidth_vector(plan))


def test_accuracies_match_scalar_metric(workload):
    topology, plan, trace = workload
    simulator = BatchSimulator(topology, MICA2)
    report = simulator.run_collection(plan, trace)
    batched = simulator.accuracies(report, trace, k=5)
    for epoch, readings in enumerate(trace):
        expected = accuracy(report.top_k_node_sets(5)[epoch], readings, 5)
        assert batched[epoch] == pytest.approx(expected)


def test_accepts_trace_objects(workload):
    topology, plan, trace = workload

    class TraceLike:
        values = trace

    batch = BatchSimulator(topology, MICA2).run_collection(plan, TraceLike())
    assert batch.num_epochs == len(trace)


class TestLedgerEquivalence:
    """The per-node EnergyLedger must agree between the scalar and the
    batch charge paths to 1e-9 relative tolerance (ISSUE acceptance)."""

    def _ledgers(self, workload, failures=None, seed=None, capacity=None):
        topology, plan, trace = workload
        scalar_ledger = EnergyLedger(topology.n, capacity_mj=capacity)
        scalar = Simulator(
            topology, MICA2, failures=failures,
            rng=np.random.default_rng(seed), ledger=scalar_ledger,
        )
        for readings in trace:
            scalar.run_collection(plan, readings)
        batch_ledger = EnergyLedger(topology.n, capacity_mj=capacity)
        BatchSimulator(
            topology, MICA2, failures=failures,
            rng=np.random.default_rng(seed), ledger=batch_ledger,
        ).run_collection(plan, trace)
        return scalar_ledger, batch_ledger

    def test_without_failures(self, workload):
        scalar, batch = self._ledgers(workload)
        assert scalar.num_epochs == batch.num_epochs == len(workload[2])
        np.testing.assert_allclose(
            batch.energy_mj, scalar.energy_mj, rtol=1e-9, atol=0.0
        )
        np.testing.assert_array_equal(batch.messages, scalar.messages)
        np.testing.assert_array_equal(batch.bytes, scalar.bytes)
        np.testing.assert_allclose(
            np.stack(batch.epoch_energy), np.stack(scalar.epoch_energy),
            rtol=1e-9, atol=0.0,
        )

    def test_with_failures_under_shared_seed(self, workload):
        topology, __, __trace = workload
        failures = LinkFailureModel.uniform(
            topology, probability=0.3, reroute_extra_mj=2.0
        )
        scalar, batch = self._ledgers(
            workload, failures=failures, seed=3, capacity=200.0
        )
        assert scalar.total_mj > 0
        # retries actually bit: more messages than the failure-free run
        clean, __ = self._ledgers(workload)
        assert scalar.messages.sum() > clean.messages.sum()
        np.testing.assert_allclose(
            batch.energy_mj, scalar.energy_mj, rtol=1e-9, atol=0.0
        )
        np.testing.assert_array_equal(batch.messages, scalar.messages)
        np.testing.assert_array_equal(batch.bytes, scalar.bytes)
        np.testing.assert_allclose(
            batch.burn_down(), scalar.burn_down(), rtol=1e-9
        )

    def test_ledger_epochs_align_with_collections(self, workload):
        topology, plan, trace = workload
        ledger = EnergyLedger(topology.n)
        simulator = Simulator(topology, MICA2, ledger=ledger)
        simulator.run_collection(plan, trace[0])
        assert ledger.num_epochs == 1
        simulator.run_collection(plan, trace[1])
        assert ledger.num_epochs == 2
        # each epoch delta sums to that collection's ledger-scope spend
        # (message costs only; trigger/acquisition extras stay out)
        assert ledger.epoch_energy[0].sum() == pytest.approx(
            ledger.epoch_energy[1].sum()
        )


def test_obs_counters_and_collect_span(workload):
    topology, plan, trace = workload
    obs = Instrumentation()
    simulator = BatchSimulator(topology, MICA2, instrumentation=obs)
    report = simulator.run_collection(plan, trace, label="eval")
    assert obs.metrics.counter("sim.batch.collections").value == 1
    assert obs.metrics.counter("sim.batch.collections.eval").value == 1
    assert obs.metrics.counter("sim.batch.epochs").value == len(trace)
    assert (
        obs.metrics.counter("sim.batch.messages").value
        == report.num_messages * len(trace)
    )
    assert obs.metrics.histogram("sim.batch.size").count == 1
    assert obs.metrics.histogram("sim.batch.seconds.eval").count == 1
    # the span is the record; no instant beside it
    assert [s.name for s, __ in obs.spans.walk()] == ["collect"]
    (span,) = obs.spans.find("collect")
    assert span.attributes == {
        "label": "eval",
        "epochs": len(trace),
        "messages": report.num_messages * len(trace),
        "values": report.num_values_sent * len(trace),
        "retries": int(report.num_retries.sum()),
        "energy_mj": float(report.energy_mj.sum()),
    }
    assert span.attributes["energy_mj"] == (
        obs.metrics.counter("sim.batch.energy_mj").value
    )
