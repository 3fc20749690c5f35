"""Multi-tenant service load benchmark (ISSUE acceptance numbers).

Two workloads over one in-process :class:`~repro.service.TopKService`,
each hosting many concurrent sessions on one shared ``n``-node random
topology:

- ``shared``: every session feeds the *same* warmup window, so the
  content-keyed :class:`~repro.service.SharedPlanCache` compiles the
  LP+LF parametric form once and every later session is a pure cache
  hit.  A round-robin :class:`~repro.service.messages.SubmitQuery` loop
  over all sessions measures queries/sec and p50/p99 latency;
- ``private``: identical, except each session feeds a distinct window,
  which defeats content keying and forces one compile per session —
  the pre-service, per-tenant regime.

``compile_speedup`` on the ``shared`` row is the private compile count
over the shared compile count (sessions/1 when the cache works).  The
acceptance bars from the issue — >= 500 queries/sec with p99 < 50 ms
on the shared n = 60 workload, and a >= 10x compile-count reduction —
are asserted here at full size and archived into
``results/BENCH_service.json``
(``BENCH_service.quick.json`` for a quick run) for the regression gate.

A third family, ``wire_*``, measures one pipelined socket connection
over the binary wire protocol: ``wire_v2`` streams
:class:`~repro.service.messages.SubmitQuery` bursts, and
``wire_v2_batch`` ships the same queries as
:class:`~repro.service.messages.SubmitBatch` frames through the
vectorized executor.  ``batch_speedup`` on the ``wire_v2_batch`` row
is its queries/sec over the ``wire_v2`` row's; both modes' replies are
collected into a transcript and the two transcripts must be
*byte-identical* (``identical`` 1/0, asserted always).  The bar that
batching must not lose to per-frame pipelining (``batch_speedup``
>= 1) is asserted (and written into the acceptance block) only with
>= 2 usable cores, since client and server time-share a single core
otherwise; every row records ``cores``.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
fleet for the CI smoke job, which still checks that the shared cache
engages (one compile total) and that the wire transcripts agree,
without enforcing full-size bars.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from _helpers import record, write_payload

from repro.network.builder import random_topology
from repro.obs import Instrumentation
from repro.service import (
    InProcessClient,
    ServiceConfig,
    ServiceThread,
    SocketClient,
    TopKService,
)

K = 5
WARMUP_ROWS = 3
WIRE_BURST = 64
"""Pipelined frames per flush/drain cycle on the wire workloads."""


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _percentile(latencies_ms: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies_ms), q))


def _run_workload(
    workload: str, n: int, sessions: int, queries: int
) -> dict:
    """One service, ``sessions`` tenants, ``queries`` timed requests."""
    obs = Instrumentation()
    service = TopKService(
        ServiceConfig(
            max_sessions=sessions,
            cache_capacity=max(32, sessions + 4),
            replan_cache_capacity=max(16, sessions + 4),
        ),
        instrumentation=obs,
    )
    client = InProcessClient(service)
    rng = np.random.default_rng(2006)
    topology = random_topology(
        n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5)
    )
    topology_id = client.register_topology(topology)
    budget = service.energy.message_cost(1) * 2.5 * K

    handles = [
        client.open_session(topology_id, K, budget_mj=budget)
        for __ in range(sessions)
    ]
    shared_window = [rng.normal(25.0, 3.0, n) for __ in range(WARMUP_ROWS)]
    for index, handle in enumerate(handles):
        window = (
            shared_window
            if workload == "shared"
            else [
                np.random.default_rng(1000 + index).normal(25.0, 3.0, n)
                for __ in range(WARMUP_ROWS)
            ]
        )
        for row in window:
            handle.feed(row)
        # first query plans (compile or cache hit) and pays install;
        # excluded from the steady-state latency loop
        handle.query(rng.normal(25.0, 3.0, n))

    readings = [rng.normal(25.0, 3.0, n) for __ in range(queries)]
    latencies_ms: list[float] = []
    loop_start = time.perf_counter()
    for index, row in enumerate(readings):
        handle = handles[index % sessions]
        start = time.perf_counter()
        reply = handle.query(row)
        latencies_ms.append((time.perf_counter() - start) * 1e3)
        assert len(reply.nodes) == K
    loop_s = time.perf_counter() - loop_start

    compiles = len(obs.spans.find("compile"))
    assert service.cache.misses == compiles
    return {
        "workload": workload,
        "n": n,
        "sessions": sessions,
        "queries": queries,
        "qps": queries / max(loop_s, 1e-12),
        "p50_ms": _percentile(latencies_ms, 50),
        "p99_ms": _percentile(latencies_ms, 99),
        "compiles": compiles,
        "cache_hits": service.cache.hits,
    }


def _wire_rows(n: int, queries: int, batch: int) -> list[dict]:
    """Single-connection pipelined throughput, per-frame vs batched.

    One live socket service; per mode, a fresh session fed the same
    warmup window answers the same ``queries`` readings — so the reply
    transcripts must agree exactly across executors.
    """
    rng = np.random.default_rng(2006)
    topology = random_topology(
        n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5)
    )
    warmup = [rng.normal(25.0, 3.0, n) for __ in range(WARMUP_ROWS)]
    readings = np.array([rng.normal(25.0, 3.0, n) for __ in range(queries)])

    service = TopKService(
        ServiceConfig(max_sessions=8, queue_limit=WIRE_BURST + 8)
    )
    budget = service.energy.message_cost(1) * 2.5 * K
    transcripts: dict[str, list] = {}
    timings: dict[str, float] = {}
    with ServiceThread(service) as live:
        for mode in ("v2", "v2_batch"):
            with SocketClient(live.host, live.port) as client:
                topology_id = client.register_topology(topology)
                handle = client.open_session(
                    topology_id, K, budget_mj=budget
                )
                for row in warmup:
                    handle.feed(row)
                handle.query(rng.normal(25.0, 3.0, n))  # pay planning

                transcript = []
                start = time.perf_counter()
                if mode == "v2_batch":
                    fired = 0
                    while fired < queries:
                        chunk = readings[fired : fired + batch]
                        reply = handle.query_batch(chunk)
                        transcript.extend(
                            zip(
                                reply.nodes, reply.values,
                                reply.energies, reply.accuracies,
                            )
                        )
                        fired += len(chunk)
                else:
                    fired = 0
                    while fired < queries:
                        burst = min(WIRE_BURST, queries - fired)
                        for offset in range(burst):
                            handle.query_nowait(readings[fired + offset])
                        for reply in client.drain():
                            transcript.append(
                                (
                                    reply.nodes, reply.values,
                                    reply.energy_mj, reply.accuracy,
                                )
                            )
                        fired += burst
                timings[mode] = time.perf_counter() - start
                transcripts[mode] = transcript

    identical = float(transcripts["v2"] == transcripts["v2_batch"])
    rows = []
    for mode, elapsed in timings.items():
        rows.append(
            {
                "workload": f"wire_{mode}",
                "n": n,
                "sessions": 1,
                "queries": queries,
                "cores": _cores(),
                "qps": queries / max(elapsed, 1e-12),
                "identical": identical,
            }
        )
    per_frame, batched = rows
    batched["batch_speedup"] = batched["qps"] / max(per_frame["qps"], 1e-12)
    return rows


def run(quick: bool = False) -> list[dict]:
    n, sessions, queries = (30, 6, 300) if quick else (60, 20, 3000)
    wire_queries, batch = (256, 32) if quick else (2048, 64)
    private = _run_workload("private", n, sessions, queries)
    shared = _run_workload("shared", n, sessions, queries)
    # the headline multi-tenancy win: one compile serves the fleet
    shared["compile_speedup"] = private["compiles"] / max(
        shared["compiles"], 1
    )
    private["compile_speedup"] = 1.0
    return [shared, private] + _wire_rows(n, wire_queries, batch)


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "service",
        rows,
        columns=[
            "workload", "n", "sessions", "queries", "cores", "qps",
            "p50_ms", "p99_ms", "compiles", "cache_hits",
            "compile_speedup", "batch_speedup", "identical",
        ],
        title="Multi-tenant service load: shared vs private plan caches",
        quick=quick,
    )
    minima = [
        {
            "metric": "qps",
            "where": {"workload": "shared"},
            "min": 500.0,
        },
        {
            "metric": "compile_speedup",
            "where": {"workload": "shared"},
            "min": 10.0,
        },
        {
            "metric": "identical",
            "where": {"workload": "wire_v2_batch"},
            "min": 1.0,
        },
    ]
    if not quick and _cores() >= 2:
        minima.append(
            {
                "metric": "batch_speedup",
                "where": {"workload": "wire_v2_batch"},
                "min": 1.0,
            }
        )
    payload = {
        "benchmark": "service",
        "quick": quick,
        "cores": _cores(),
        "rows": rows,
        "acceptance": {
            "minima": minima,
            "maxima": [
                {
                    "metric": "p99_ms",
                    "where": {"workload": "shared"},
                    "max": 50.0,
                },
            ],
            "enforced": not quick,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    shared = next(r for r in rows if r["workload"] == "shared")
    private = next(r for r in rows if r["workload"] == "private")
    # the shared cache must actually engage: one compile for the fleet,
    # one compile per tenant without it
    assert shared["compiles"] == 1
    assert private["compiles"] == shared["sessions"]
    assert shared["compile_speedup"] == shared["sessions"]
    batched = next(r for r in rows if r["workload"] == "wire_v2_batch")
    # the executor must never change the answers
    assert batched["identical"] == 1.0, (
        "wire transcripts diverged (v2 vs v2-batch)"
    )
    if quick:
        # smoke: correctness of the sharing, not full-size throughput
        assert shared["qps"] > 0
        assert all(r["qps"] > 0 for r in rows)
        return
    assert shared["qps"] >= 500.0
    assert shared["p99_ms"] < 50.0
    assert shared["compile_speedup"] >= 10.0
    if batched["cores"] >= 2:
        assert batched["batch_speedup"] >= 1.0, (
            f"batched v2 ran at {batched['batch_speedup']:.2f}x"
            " of per-frame pipelined v2"
        )


def test_service(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
