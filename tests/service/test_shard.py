"""Sharded service: routing, parity with single-process, lifecycle.

Worker processes are expensive to spawn (a fresh interpreter imports
numpy/scipy), so every live test shares one module-scoped two-worker
deployment; pure routing logic is tested without any processes.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.obs import Instrumentation
from repro.network.builder import random_topology
from repro.service import messages as msg
from repro.service.client import InProcessClient
from repro.service.server import ServiceConfig, TopKService
from repro.service.shard import (
    ShardedClient,
    ShardedService,
    rendezvous_worker,
)

K = 2
BUDGET = 50.0


def _topologies(count=3, nodes=10, seed=5):
    rng = np.random.default_rng(seed)
    return [
        random_topology(nodes, rng=rng, radio_range=70.0)
        for __ in range(count)
    ]


def _rows(n=4, nodes=10, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(25, 3, nodes) for __ in range(n)]


# -- routing (no processes) -------------------------------------------------


def test_rendezvous_is_deterministic_and_spread():
    keys = [f"top{i}|lp-lf|3" for i in range(64)]
    owners = [rendezvous_worker(k, 4) for k in keys]
    assert owners == [rendezvous_worker(k, 4) for k in keys]
    assert set(owners) == {0, 1, 2, 3}  # 64 keys cover 4 workers


def test_rendezvous_is_consistent_when_scaling_up():
    """Adding a worker only moves keys that the new worker wins."""
    keys = [f"top{i}|lp-lf|3" for i in range(128)]
    before = [rendezvous_worker(k, 3) for k in keys]
    after = [rendezvous_worker(k, 4) for k in keys]
    for old, new in zip(before, after):
        assert new == old or new == 3


def test_rendezvous_rejects_zero_workers():
    with pytest.raises(ServiceError, match="at least one"):
        rendezvous_worker("key", 0)


def test_malformed_session_ids_are_rejected():
    client = ShardedClient([("h", 1), ("h", 2)])  # lazy: never connects
    for bad in ("s0001", "w9/s0001", "wx/s0001", "w/s0001", "w1-s0001"):
        with pytest.raises(ServiceError, match="malformed sharded"):
            client.request(msg.FeedSample(session_id=bad, readings=(1.0,)))


def test_broadcast_kinds_cannot_be_pipelined():
    client = ShardedClient([("h", 1), ("h", 2)])
    with pytest.raises(ServiceError, match="broadcast"):
        client.submit_nowait(msg.GetStats())


def test_session_id_namespacing_round_trips():
    client = ShardedClient([("h", 1), ("h", 2)])
    assert client._split_session_id("w1/s0042") == (1, "s0042")
    assert client._join_session_id(1, "s0042") == "w1/s0042"


def test_routing_swaps_session_ids_without_rebuilding(monkeypatch):
    """Routing a request and namespacing its reply match
    ``dataclasses.replace`` but skip the readings' re-normalization."""
    client = ShardedClient([("h", 1), ("h", 2)])
    request = msg.SubmitQuery(session_id="w1/s0003", readings=(0.5, 0.25))
    reply = msg.QueryReply(session_id="s0003", nodes=(1,), values=(0.5,))
    expected_request = dataclasses.replace(request, session_id="s0003")
    expected_reply = dataclasses.replace(reply, session_id="w1/s0003")
    post_inits = []
    for cls in (msg.SubmitQuery, msg.QueryReply):
        monkeypatch.setattr(cls, "__post_init__", post_inits.append)
    assert client._route(request) == (1, expected_request)
    assert client._namespace_reply(1, reply) == expected_reply
    assert post_inits == []
    assert request.session_id == "w1/s0003"  # the original is untouched


def test_sharded_service_validates_workers():
    with pytest.raises(ServiceError, match=">= 1"):
        ShardedService(0)


# -- live deployment --------------------------------------------------------


@pytest.fixture(scope="module")
def sharded():
    with ShardedService(2, ServiceConfig(max_sessions=32)) as deployment:
        yield deployment


def test_sessions_route_by_content_and_work(sharded):
    client = sharded.client()
    rows = _rows()
    try:
        for topology in _topologies():
            topology_id = client.register_topology(topology)
            expected = sharded.worker_for(topology_id, "lp-lf", K)
            session = client.open_session(topology_id, K, budget_mj=BUDGET)
            shard, __ = client._split_session_id(session.session_id)
            assert shard == expected
            for row in rows[:3]:
                session.feed(row)
            reply = session.query(rows[3])
            assert len(reply.nodes) == K
            assert reply.session_id == session.session_id
            session.close()
    finally:
        client.close()


def test_sharded_results_match_single_process(sharded):
    """Byte-identical parity: same feeds, same queries, same replies."""
    topologies = _topologies(count=4, seed=17)
    rows = _rows(n=5, seed=23)

    def run(client):
        outcomes = []
        for topology in topologies:
            topology_id = client.register_topology(topology)
            session = client.open_session(topology_id, K, budget_mj=BUDGET)
            for row in rows[:3]:
                session.feed(row)
            replies = [session.query(row) for row in rows[3:]]
            plan = session.plan()
            outcomes.append(
                (
                    [
                        (r.nodes, r.values, r.energy_mj, r.accuracy)
                        for r in replies
                    ],
                    plan,
                )
            )
            session.close()
        return outcomes

    single = run(InProcessClient(TopKService(ServiceConfig(max_sessions=32))))
    client = sharded.client()
    try:
        shard_side = run(client)
    finally:
        client.close()
    assert shard_side == single


def test_stats_aggregate_across_workers(sharded):
    client = sharded.client()
    try:
        topology_id = client.register_topology(_topologies(count=1)[0])
        session = client.open_session(topology_id, K, budget_mj=BUDGET)
        stats = client.stats()
        assert stats.counters["workers"] == 2
        assert set(stats.counters["per_shard"]) == {"0", "1"}
        assert stats.sessions_open >= 1
        # registration broadcasts: every worker knows the topology
        assert stats.topologies >= 1
        for counters in stats.counters["per_shard"].values():
            assert "cache" in counters
        session.close()
    finally:
        client.close()


def test_pipelined_burst_across_shards_preserves_order(sharded):
    client = sharded.client()
    rows = _rows()
    try:
        handles = []
        for topology in _topologies(count=3, seed=29):
            topology_id = client.register_topology(topology)
            handle = client.open_session(topology_id, K, budget_mj=BUDGET)
            for row in rows[:3]:
                handle.feed(row)
            handles.append(handle)
        expected = []
        for handle in handles:
            handle.feed_nowait(rows[3])
            expected.append(("sample_accepted", handle.session_id))
            handle.query_nowait(rows[0])
            expected.append(("query_reply", handle.session_id))
        assert client.pending == 6
        replies = client.drain()
        assert [(r.kind, r.session_id) for r in replies] == expected
        for handle in handles:
            handle.close()
    finally:
        client.close()


def test_artifact_store_is_shared_across_workers(sharded):
    """Both workers spill into (and load from) one artifact directory."""
    client = sharded.client()
    try:
        topology_id = client.register_topology(_topologies(count=1, seed=31)[0])
        session = client.open_session(topology_id, K, budget_mj=BUDGET)
        for row in _rows(seed=31)[:3]:
            session.feed(row)
        session.query(_rows(seed=31)[3])
        session.close()
        stats = client.stats()
        artifact_counts = [
            counters["cache"].get("artifacts", {})
            for counters in stats.counters["per_shard"].values()
        ]
        assert sum(a.get("saves", 0) for a in artifact_counts) >= 1
    finally:
        client.close()


def test_shutdown_is_idempotent_and_reaps_workers():
    deployment = ShardedService(1, ServiceConfig())
    deployment.start()
    processes = list(deployment._processes)
    assert all(p.is_alive() for p in processes)
    deployment.shutdown()
    assert not deployment.endpoints
    assert all(not p.is_alive() for p in processes)
    deployment.shutdown()  # no-op


def test_lifecycle_is_one_instant_span_per_phase():
    obs = Instrumentation()
    deployment = ShardedService(1, ServiceConfig(), instrumentation=obs)
    deployment.start()
    ports = [port for __, port in deployment.endpoints]
    deployment.shutdown()
    instants = obs.spans.find("shard_lifecycle")
    assert [span.attributes for span in instants] == [
        {"phase": "spawned", "workers": 1, "ports": ports},
        {"phase": "stopped", "workers": 0},
    ]
    assert all(span.duration_s == 0.0 for span in instants)
    assert obs.metrics.counter("events.shard_lifecycle").value == 2
