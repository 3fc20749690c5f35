"""Batched queries: bitwise parity with the scalar path — engine,
service (in-process and socket), and sharded deployments."""

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.errors import SamplingError
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.obs.energy import EnergyLedger
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.query.engine import EngineConfig, TopKEngine
from repro.service import messages as msg
from repro.service.client import SocketClient
from repro.service.server import ServiceConfig, ServiceThread, TopKService

PARENTS = (-1, 0, 0, 1, 1, 2, 5)


def _engine(topology, seed=0, **kwargs):
    return TopKEngine(
        topology,
        EnergyModel.mica2(),
        k=4,
        planner=LPNoLFPlanner(),
        config=EngineConfig(budget_mj=400.0),
        rng=np.random.default_rng(seed),
        **kwargs,
    )


@pytest.fixture
def setting():
    rng = np.random.default_rng(9)
    topology = random_topology(30, rng=rng)
    field = random_gaussian_field(30, rng)
    return rng, topology, field


def _scalar_outcome(engine, matrix):
    results = [engine.query(row) for row in matrix]
    return (
        tuple(tuple(int(n) for __, n in r.returned) for r in results),
        tuple(tuple(float(v) for v, __ in r.returned) for r in results),
        tuple(float(r.energy_mj) for r in results),
        tuple(float(r.accuracy) for r in results),
        engine.total_energy_mj,
    )


def _fed(engine, field, rng, epochs=8):
    for __ in range(epochs):
        engine.feed_sample(field.sample(rng))
    return engine


class TestEngineBatch:
    def test_batch_is_bitwise_identical_to_scalar(self, setting):
        rng, topology, field = setting
        matrix = np.array([field.sample(rng) for __ in range(10)])
        scalar = _fed(_engine(topology), field, np.random.default_rng(9))
        batched = _fed(_engine(topology), field, np.random.default_rng(9))

        want = _scalar_outcome(scalar, matrix)
        got = batched.query_batch(matrix)
        assert got.nodes == want[0]
        assert got.values == want[1]
        assert got.energies == want[2]
        assert got.accuracies == want[3]
        assert batched.total_energy_mj == want[4]

    def test_batch_rows_helper_matches_query_results(self, setting):
        rng, topology, field = setting
        matrix = np.array([field.sample(rng) for __ in range(4)])
        engine = _fed(_engine(topology), field, rng)
        batch = engine.query_batch(matrix)
        assert batch.num_epochs == 4
        for i, row in enumerate(batch.rows()):
            assert row.energy_mj == batch.energies[i]
            assert tuple(n for __, n in row.returned) == batch.nodes[i]

    def test_batch_requires_a_matrix(self, setting):
        __, topology, __ = setting
        engine = _engine(topology)
        with pytest.raises(SamplingError, match="matrix"):
            engine.query_batch(np.zeros(topology.n))

    def test_empty_batch_returns_empty_result(self, setting):
        rng, topology, field = setting
        engine = _fed(_engine(topology), field, rng)
        got = engine.query_batch(np.zeros((0, topology.n)))
        assert got.num_epochs == 0
        assert got.nodes == ()

    def test_failure_model_falls_back_to_scalar_loop(self, setting):
        rng, topology, field = setting
        matrix = np.array([field.sample(rng) for __ in range(5)])

        def build():
            failures = LinkFailureModel.uniform(
                topology, probability=0.3, reroute_extra_mj=1.0
            )
            return _fed(
                _engine(topology, failures=failures),
                field,
                np.random.default_rng(9),
            )

        want = _scalar_outcome(build(), matrix)
        got_engine = build()
        got = got_engine.query_batch(matrix)
        # same rng stream as the scalar loop: identical draws, energies
        assert got.nodes == want[0]
        assert got.values == want[1]
        assert got.energies == want[2]
        assert got_engine.total_energy_mj == want[4]

    def test_ledger_falls_back_to_scalar_loop(self, setting):
        rng, topology, field = setting
        matrix = np.array([field.sample(rng) for __ in range(5)])

        def build():
            ledger = EnergyLedger(topology.n, capacity_mj=300.0)
            return _fed(
                _engine(topology, ledger=ledger),
                field,
                np.random.default_rng(9),
            )

        want_engine = build()
        want = _scalar_outcome(want_engine, matrix)
        got_engine = build()
        got = got_engine.query_batch(matrix)
        assert got.energies == want[2]
        assert got_engine.total_energy_mj == want[4]
        # per-node round-off identical too
        assert np.array_equal(
            got_engine.ledger.energy_mj, want_engine.ledger.energy_mj
        )

    def test_topology_change_rebuilds_batch_simulator(self, setting):
        rng, topology, field = setting
        engine = _fed(_engine(topology), field, rng)
        matrix = np.array([field.sample(rng) for __ in range(2)])
        engine.query_batch(matrix)
        first = engine._batch_simulator
        assert first is not None
        engine.query_batch(matrix)
        assert engine._batch_simulator is first  # cached across calls


class TestServiceBatch:
    def test_batch_matches_scalar_over_the_wire(self):
        rng = np.random.default_rng(3)
        feed = [tuple(rng.uniform(0, 100, len(PARENTS))) for __ in range(4)]
        rows = [tuple(rng.uniform(0, 100, len(PARENTS))) for __ in range(5)]

        def open_fed(client):
            topology_id = client.register_topology(PARENTS)
            session = client.open_session(topology_id, 2, budget_mj=500.0)
            for row in feed:
                session.feed(row)
            return session

        with ServiceThread(TopKService()) as live:
            with SocketClient(live.host, live.port) as client:
                scalar = open_fed(client)
                batched = open_fed(client)
                replies = [scalar.query(row) for row in rows]
                batch = batched.query_batch(np.array(rows))
        assert batch.nodes == tuple(r.nodes for r in replies)
        assert batch.values == tuple(r.values for r in replies)
        assert batch.energies == tuple(r.energy_mj for r in replies)
        assert batch.accuracies == tuple(r.accuracy for r in replies)

    def test_batch_pipelines_with_nowait(self):
        rng = np.random.default_rng(3)
        matrix = np.array(
            [rng.uniform(0, 100, len(PARENTS)) for __ in range(3)]
        )
        with ServiceThread(TopKService()) as live:
            with SocketClient(live.host, live.port) as client:
                topology_id = client.register_topology(PARENTS)
                session = client.open_session(
                    topology_id, 2, budget_mj=500.0
                )
                for row in matrix:
                    session.feed_nowait(tuple(row))
                session.query_batch_nowait(matrix)
                replies = client.drain()
        assert isinstance(replies[-1], msg.BatchReply)
        assert len(replies[-1].energies) == 3

    def test_batch_on_expired_session_is_a_session_error(self):
        from repro.errors import SessionError

        with ServiceThread(TopKService()) as live:
            with SocketClient(live.host, live.port) as client:
                with pytest.raises(SessionError):
                    client.request(
                        msg.SubmitBatch(
                            session_id="nope", readings=((1.0,),)
                        )
                    )
