"""Live telemetry plane over a sharded deployment (the PR acceptance).

One module-scoped 4-worker fleet (spawning interpreters is expensive)
serves every test here: distributed-trace stitching across processes,
the worker telemetry channel, the HTTP surfaces, and the merged
GetStats histograms.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.obs.distributed import REQUEST_LATENCY_METRIC
from repro.service.server import ServiceConfig
from repro.service.shard import ShardedService

K = 2
BUDGET = 50.0
WORKERS = 4


def _rows(n=4, nodes=10, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(25, 3, nodes) for __ in range(n)]


@pytest.fixture(scope="module")
def fleet():
    with ShardedService(
        WORKERS,
        ServiceConfig(max_sessions=32),
        instrumentation=Instrumentation(),
        telemetry_port=0,
    ) as deployment:
        client = deployment.client()
        rows = _rows()
        rng = np.random.default_rng(5)
        # enough distinct contents that all four shards see sessions
        from repro.network.builder import random_topology

        for seed in range(6):
            topology = random_topology(
                10, rng=np.random.default_rng(seed), radio_range=70.0
            )
            topology_id = client.register_topology(topology)
            session = client.open_session(topology_id, K, budget_mj=BUDGET)
            for row in rows[:3]:
                session.feed(row)
            session.query(rows[3])
            session.close()
        yield deployment, client
        client.close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read()
    except urllib.error.HTTPError as err:
        err.close()  # the error carries the response and its socket
        raise


# -- the acceptance criterion ------------------------------------------------


def test_one_query_stitches_into_a_single_cross_process_trace(fleet):
    """A SocketClient query against the 4-worker fleet must yield one
    merged Chrome-trace JSON whose client span, dispatch span, and
    worker plan/compile/solve spans share a single trace id."""
    deployment, client = fleet
    obs = deployment.instrumentation
    query_roots = [
        root for root in obs.spans.roots
        if root.name == "service.shard.request"
        and root.attributes.get("kind") == "submit_query"
    ]
    assert query_roots, "fixture ran queries"
    trace_id = query_roots[0].attributes["trace_id"]

    deployment.poll_telemetry()
    document = json.loads(
        deployment.aggregator.chrome_trace_json(client=obs)
    )
    stitched = [
        event for event in document["traceEvents"]
        if event["ph"] == "X"
        and event.get("args", {}).get("trace_id") == trace_id
    ]
    names = {event["name"] for event in stitched}
    # client lane: the dispatch span and the socket request under it
    assert "service.shard.request" in names
    assert "client.request" in names
    # worker lane: the handled request and its planning subtree
    assert "service.request" in names
    assert {"plan", "compile", "solve"} <= names
    # and the story spans two processes (two pid lanes)
    assert len({event["pid"] for event in stitched}) >= 2


def test_every_shard_reports_telemetry_over_the_pipe(fleet):
    deployment, __ = fleet
    aggregator = deployment.poll_telemetry()
    assert aggregator.shards == ["0", "1", "2", "3"]
    for shard in aggregator.shards:
        snapshot = aggregator.snapshot(shard)
        assert snapshot["shard"] == shard
        assert snapshot["uptime_s"] > 0
        assert snapshot["spans"]["mode"] == "ring"
    rows = aggregator.top_rows()
    assert [row["shard"] for row in rows] == ["0", "1", "2", "3", "fleet"]
    fleet_row = rows[-1]
    assert fleet_row["requests"] >= 6 * 6  # 6 sessions x 6 requests
    assert fleet_row["p99_ms"] is not None and fleet_row["p99_ms"] > 0


def test_prometheus_endpoint_exposes_per_shard_gauges(fleet):
    deployment, __ = fleet
    text = _get(deployment.telemetry.url("/metrics")).decode()
    for shard in range(WORKERS):
        assert f'repro_shard_qps{{shard="{shard}"}}' in text
        assert f'repro_shard_p99_seconds{{shard="{shard}"}}' in text
    assert "# TYPE repro_shard_qps gauge" in text
    assert 'repro_service_request_seconds{quantile="0.99"}' in text


def test_http_trace_and_json_routes_serve_the_fleet(fleet):
    deployment, __ = fleet
    trace = json.loads(_get(deployment.telemetry.url("/trace")))
    lanes = {
        event["args"]["name"] for event in trace["traceEvents"]
        if event["ph"] == "M"
    }
    assert {"shard 0", "shard 1", "shard 2", "shard 3"} <= lanes
    dashboard = json.loads(_get(deployment.telemetry.url("/json")))
    assert dashboard["shards"] == ["0", "1", "2", "3"]
    exemplars = json.loads(_get(deployment.telemetry.url("/exemplars")))
    assert exemplars and all("span" in row for row in exemplars)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(deployment.telemetry.url("/bogus"))
    assert excinfo.value.code == 404


def test_get_stats_merges_shard_histograms_properly(fleet):
    """S1: fleet quantiles come from merged buckets and exact extrema,
    not from any single shard."""
    __, client = fleet
    stats = client.stats()
    merged = stats.counters["histograms"]
    latency = merged[REQUEST_LATENCY_METRIC]
    assert latency["count"] >= 6 * 6
    assert 0 < latency["min"] <= latency["p50"] <= latency["p99"]
    assert latency["p99"] <= latency["max"]
    assert latency["min"] <= latency["mean"] <= latency["max"]
    # the merged count covers what the shards reported individually
    per_shard_counts = [
        counters["histograms"][REQUEST_LATENCY_METRIC]["count"]
        for counters in stats.counters["per_shard"].values()
        if REQUEST_LATENCY_METRIC in counters.get("histograms", {})
    ]
    assert latency["count"] == sum(per_shard_counts)


def test_get_stats_reports_wire_counters_per_shard(fleet):
    """S6: every shard's stats carry wire request/byte totals."""
    __, client = fleet
    stats = client.stats()
    per_shard = stats.counters["per_shard"]
    assert set(per_shard) == {"0", "1", "2", "3"}
    for counters in per_shard.values():
        wire_stats = counters["wire"]
        assert {"requests", "request_bytes", "reply_bytes"} <= set(
            wire_stats
        )
        assert "blobs" not in counters
    total_requests = sum(
        counters["wire"]["requests"] for counters in per_shard.values()
    )
    assert total_requests >= 6 * 6
    total_bytes = sum(
        counters["wire"]["request_bytes"] for counters in per_shard.values()
    )
    assert total_bytes > 0


def test_top_cli_renders_the_live_fleet(fleet, capsys):
    from repro.cli import main

    deployment, __ = fleet
    assert main(
        ["top", "--url", deployment.telemetry.url(""), "--once"]
    ) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "qps" in lines[0] and "p99(ms)" in lines[0]
    assert lines[-1].strip().startswith("fleet")
    assert sum(1 for line in lines if line.strip()[0].isdigit()) == WORKERS
