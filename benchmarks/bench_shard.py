"""Sharded-service scaling and pipelined-client throughput (ISSUE bars).

Three workload families over live socket deployments:

- ``scale``: one row per worker count (1, 2, 4).  ``groups`` distinct
  topologies, each with ``tenants`` equal-content sessions, routed by
  content hash across the workers; the timed loop fires pipelined
  query bursts across every session and drains them, so all workers
  execute concurrently.  ``scaling_speedup`` is each row's aggregate
  qps over the 1-worker row's.  The ISSUE bar — >= 3x at 4 workers —
  is only physically reachable with >= 4 usable cores, so it is
  asserted (and written into the acceptance block) only when the
  machine has them; every row records ``cores`` so a baseline
  from a small box is legible.
- ``pipeline``: one session on a 1-worker deployment; the same feed
  frames sent lockstep (one round trip each) and pipelined (bursts of
  ``BURST`` frames, one flush + one drain per burst).
  ``pipeline_speedup`` is the pipelined qps over lockstep — this bar
  (>= 2x) holds even on one core, because it removes per-request
  syscalls and context switches, not compute.
- ``wire``: pipelined query bursts on a 2-worker deployment over the
  binary wire protocol (``wire_v2``, aggregate qps).  The same stream
  is replayed through an in-process service, and the two reply
  transcripts must agree exactly (``identical``, asserted always).
- ``parity``: the sharded deployment must be *byte-identical* to a
  single-process service on the same lockstep requests — same query
  replies (nodes, values, energy, accuracy) and same serialized
  plans.  Recorded as ``identical`` 1/0 and asserted always, full and
  quick.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks
worker counts and request volumes for the CI smoke job.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from _helpers import record, write_payload

from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.service import (
    InProcessClient,
    ServiceConfig,
    ShardedService,
    TopKService,
)

K = 5
N = 30
WARMUP_ROWS = 3
BURST = 128
"""Pipelined frames per flush/drain cycle.  The server answers every
frame each ``recv`` brings in and ``sendall``s the joined replies; it
holds no read-ahead, so an undrained burst is bounded only by the
kernel socket buffers.  128 small frames and their replies fit in
those with room to spare, so neither direction of the stream stalls."""

BUDGET = EnergyModel.mica2().message_cost(1) * 2.5 * K


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _config(sessions: int) -> ServiceConfig:
    return ServiceConfig(
        max_sessions=sessions + 4,
        cache_capacity=max(32, sessions + 4),
        replan_cache_capacity=max(16, sessions + 4),
    )


def _topologies(groups: int):
    rng = np.random.default_rng(2006)
    return [
        random_topology(N, rng=rng, radio_range=max(25.0, 200.0 / N**0.5))
        for __ in range(groups)
    ]


def _open_fleet(client, topologies, tenants: int, budget: float):
    """Register every topology, open ``tenants`` sessions per group,
    feed the shared warmup window, pay the first (planning) query."""
    rng = np.random.default_rng(7)
    warmup = [rng.normal(25.0, 3.0, N) for __ in range(WARMUP_ROWS)]
    probe = rng.normal(25.0, 3.0, N)
    handles = []
    for topology in topologies:
        topology_id = client.register_topology(topology)
        for __ in range(tenants):
            handle = client.open_session(topology_id, K, budget_mj=budget)
            for row in warmup:
                handle.feed(row)
            handle.query(probe)
            handles.append(handle)
    return handles


def _scale_row(workers: int, groups: int, tenants: int, queries: int) -> dict:
    """Aggregate pipelined-query throughput at one worker count."""
    sessions = groups * tenants
    with ShardedService(workers, _config(sessions)) as deployment:
        client = deployment.client()
        try:
            budget = BUDGET
            handles = _open_fleet(
                client, _topologies(groups), tenants, budget
            )
            rng = np.random.default_rng(99)
            readings = [rng.normal(25.0, 3.0, N) for __ in range(8)]
            fired = 0
            start = time.perf_counter()
            while fired < queries:
                burst = 0
                for handle in handles:
                    if fired + burst >= queries or burst >= BURST:
                        break
                    handle.query_nowait(readings[(fired + burst) % 8])
                    burst += 1
                for reply in client.drain():
                    assert len(reply.nodes) == K
                fired += burst
            elapsed = time.perf_counter() - start
        finally:
            client.close()
    return {
        "workload": "scale",
        "workers": workers,
        "sessions": sessions,
        "requests": queries,
        "cores": _cores(),
        "qps": queries / max(elapsed, 1e-12),
    }


def _pipeline_rows(feeds: int) -> list[dict]:
    """Lockstep vs pipelined feed throughput on one connection."""
    rng = np.random.default_rng(13)
    rows = [rng.normal(25.0, 3.0, N) for __ in range(16)]
    timings = {}
    with ShardedService(1, _config(2)) as deployment:
        for mode in ("lockstep", "pipelined"):
            client = deployment.client()
            try:
                handle = _open_fleet(
                    client, _topologies(1), 1, BUDGET
                )[0]
                start = time.perf_counter()
                if mode == "lockstep":
                    for index in range(feeds):
                        handle.feed(rows[index % 16])
                else:
                    fired = 0
                    while fired < feeds:
                        burst = min(BURST, feeds - fired)
                        for offset in range(burst):
                            handle.feed_nowait(
                                rows[(fired + offset) % 16]
                            )
                        for reply in client.drain():
                            assert reply.kind == "sample_accepted"
                        fired += burst
                timings[mode] = time.perf_counter() - start
                handle.close()
            finally:
                client.close()
    out = []
    for mode, elapsed in timings.items():
        out.append(
            {
                "workload": f"pipeline_{mode}",
                "workers": 1,
                "sessions": 1,
                "requests": feeds,
                "cores": _cores(),
                "qps": feeds / max(elapsed, 1e-12),
            }
        )
    speedup = timings["lockstep"] / max(timings["pipelined"], 1e-12)
    for row in out:
        row["pipeline_speedup"] = (
            speedup if row["workload"] == "pipeline_pipelined" else 1.0
        )
    return out


def _stream_transcript(client, queries: int, readings):
    """Pipelined query bursts over a fresh fleet: the replies in order
    and the seconds the bursts took (fleet set-up excluded)."""
    handles = _open_fleet(client, _topologies(2), 1, BUDGET)
    transcript = []
    fired = 0
    start = time.perf_counter()
    while fired < queries:
        burst = 0
        for handle in handles:
            if fired + burst >= queries or burst >= BURST:
                break
            handle.query_nowait(readings[(fired + burst) % 16])
            burst += 1
        for reply in client.drain():
            transcript.append(
                (reply.nodes, reply.values, reply.energy_mj, reply.accuracy)
            )
        fired += burst
    elapsed = time.perf_counter() - start
    for handle in handles:
        handle.close()
    return transcript, elapsed


def _protocol_rows(queries: int) -> list[dict]:
    """Pipelined sharded query throughput over the wire, checked
    against the same stream through an in-process service."""
    rng = np.random.default_rng(23)
    readings = [rng.normal(25.0, 3.0, N) for __ in range(16)]
    with ShardedService(2, _config(8)) as deployment:
        client = deployment.client()
        try:
            sharded, elapsed = _stream_transcript(client, queries, readings)
        finally:
            client.close()
    single, __ = _stream_transcript(
        InProcessClient(TopKService(_config(8))), queries, readings
    )
    return [
        {
            "workload": "wire_v2",
            "workers": 2,
            "sessions": 2,
            "requests": queries,
            "cores": _cores(),
            "qps": queries / max(elapsed, 1e-12),
            "identical": float(sharded == single),
        }
    ]


def _parity_row(groups: int) -> dict:
    """Sharded replies must equal single-process replies exactly."""
    topologies = _topologies(groups)
    rng = np.random.default_rng(41)
    readings = [rng.normal(25.0, 3.0, N) for __ in range(4)]

    def transcript(client) -> list:
        out = []
        handles = _open_fleet(client, topologies, 1, BUDGET)
        for handle in handles:
            for row in readings:
                reply = handle.query(row)
                out.append(
                    (
                        reply.nodes,
                        reply.values,
                        reply.energy_mj,
                        reply.accuracy,
                    )
                )
            out.append(handle.plan())
            handle.close()
        return out

    single = transcript(
        InProcessClient(TopKService(_config(groups)))
    )
    with ShardedService(2, _config(2 * groups)) as deployment:
        client = deployment.client()
        try:
            sharded = transcript(client)
        finally:
            client.close()
    return {
        "workload": "parity",
        "workers": 2,
        "sessions": groups,
        "requests": groups * len(readings),
        "cores": _cores(),
        "identical": float(sharded == single),
    }


def run(quick: bool = False) -> list[dict]:
    if quick:
        worker_counts, groups, tenants, queries, feeds, parity_groups = (
            (1, 2), 2, 1, 80, 400, 2
        )
        wire_queries = 160
    else:
        worker_counts, groups, tenants, queries, feeds, parity_groups = (
            (1, 2, 4), 8, 2, 1600, 4000, 4
        )
        wire_queries = 1200
    rows = [
        _scale_row(workers, groups, tenants, queries)
        for workers in worker_counts
    ]
    base_qps = rows[0]["qps"]
    for row in rows:
        row["scaling_speedup"] = row["qps"] / max(base_qps, 1e-12)
    rows.extend(_pipeline_rows(feeds))
    rows.extend(_protocol_rows(wire_queries))
    rows.append(_parity_row(parity_groups))
    return rows


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "shard",
        rows,
        columns=[
            "workload", "workers", "sessions", "requests", "cores",
            "qps", "scaling_speedup", "pipeline_speedup",
            "identical",
        ],
        title="Sharded service scaling and pipelined-client throughput",
        quick=quick,
    )
    cores = _cores()
    minima = [
        {
            "metric": "identical",
            "where": {"workload": "parity"},
            "min": 1.0,
        },
        {
            "metric": "identical",
            "where": {"workload": "wire_v2"},
            "min": 1.0,
        },
    ]
    if not quick:
        minima.append(
            {
                "metric": "pipeline_speedup",
                "where": {"workload": "pipeline_pipelined"},
                "min": 2.0,
            }
        )
        if cores >= 4:
            minima.append(
                {
                    "metric": "scaling_speedup",
                    "where": {"workload": "scale", "workers": 4},
                    "min": 3.0,
                }
            )
    payload = {
        "benchmark": "shard",
        "quick": quick,
        "cores": cores,
        "rows": rows,
        "acceptance": {"minima": minima, "enforced": True},
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    parity = next(r for r in rows if r["workload"] == "parity")
    assert parity["identical"] == 1.0, (
        "sharded replies diverged from the single-process service"
    )
    wire = next(r for r in rows if r["workload"] == "wire_v2")
    assert wire["identical"] == 1.0, (
        "sharded pipelined transcript diverged from the in-process one"
    )
    if quick:
        assert all(r["qps"] > 0 for r in rows if "qps" in r)
        return
    pipelined = next(
        r for r in rows if r["workload"] == "pipeline_pipelined"
    )
    assert pipelined["pipeline_speedup"] >= 2.0, (
        f"pipelining gained only {pipelined['pipeline_speedup']:.2f}x"
    )
    four = next(
        (r for r in rows if r["workload"] == "scale" and r["workers"] == 4),
        None,
    )
    if four is not None and four["cores"] >= 4:
        assert four["scaling_speedup"] >= 3.0, (
            f"4 workers scaled only {four['scaling_speedup']:.2f}x"
        )


def test_shard(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
