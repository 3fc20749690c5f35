"""Disabled-path observability overhead micro-benchmark (ISSUE bar).

When no :class:`~repro.obs.Instrumentation` is attached, every hook in
the hot path collapses to a shared no-op singleton —
``maybe_span(None, ...)`` returns ``NULL_SPAN`` — so the disabled path
allocates nothing.  This benchmark prices that path:

- ``span_ns``: per-call cost of entering and exiting the null span,
  measured over a tight loop;
- ``hooks``: how many hook executions one real ``plan()`` performs,
  counted by running the identical work once *with* instrumentation
  attached (retained + dropped spans, plus every histogram
  observation — an over-count, which only makes the bar stricter);
- ``bare_s``: best-of wall time of the uninstrumented ``plan()``.

``overhead_fraction = hooks * span cost / bare_s`` — the share of an
uninstrumented planning run spent inside no-op observability hooks.
The < 2% bar is asserted here together with the singleton identity
that makes the disabled path allocation-free.  A machine-readable ``results/BENCH_obs_overhead.json``
(``BENCH_obs_overhead.quick.json`` for a quick run)
is written for the regression gate, whose acceptance maximum re-checks
the 2% bar; the fraction is a machine-relative ratio, so it stays
meaningful across runner hardware.

A second row prices the *distributed* hooks on the service request
path (client span + trace adoption + server span + latency histogram
+ slow-request offer): request qps is measured end to end through an
uninstrumented client/service pair, hook executions are counted on an
instrumented twin, and the same < 2% bar is asserted on the resulting
fraction, each hook priced at the dearer of the null span and the
null trace adoption — so the telemetry plane provably costs nothing
when off.
Its null-hook costs and bare request time are taken in alternating
rounds (minimum of each), which keeps the ratio's run-to-run spread
well inside the bar.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from _helpers import record, write_payload

from repro.datagen.gaussian import random_gaussian_field
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.obs import NULL_SPAN, Instrumentation, maybe_span
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner

K = 10
_SERVICE_ROUNDS = 15


def _context(n: int, m: int, instrumentation=None) -> PlanningContext:
    rng = np.random.default_rng(2006)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5))
    field = random_gaussian_field(n, rng).scaled_variance(4.0)
    samples = field.trace(m, rng).sample_matrix(K)
    budget = energy.message_cost(1) * 2 * K
    return PlanningContext(
        topology, energy, samples, K, budget,
        instrumentation=instrumentation,
    )


def _per_call_null_span(loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        with maybe_span(None, "bench", tag=1):
            pass
    return (time.perf_counter() - start) / loops


def _count_hooks(n: int, m: int) -> int:
    """Hook executions in one plan(), counted on an instrumented twin."""
    obs = Instrumentation()
    LPLFPlanner().plan(_context(n, m, instrumentation=obs))
    spans = obs.spans.retained + obs.spans.dropped
    observations = sum(h.count for h in obs.metrics.histograms.values())
    return spans + observations


def _per_call_null_adopt(loops: int) -> float:
    from repro.obs import NULL_SPAN
    from repro.obs.distributed import adopt_trace

    start = time.perf_counter()
    for _ in range(loops):
        adopt_trace(None, NULL_SPAN)
    return (time.perf_counter() - start) / loops


def _service_workload(requests: int, instrumented: bool):
    """A client/service pair plus the request sequence to time."""
    from repro.service.client import InProcessClient
    from repro.service.server import TopKService

    from repro.network.builder import random_topology

    rng = np.random.default_rng(77)
    nodes = 24
    service = TopKService(
        instrumentation=Instrumentation() if instrumented else None
    )
    client = InProcessClient(
        service,
        instrumentation=Instrumentation() if instrumented else None,
    )
    topology = random_topology(nodes, rng=rng, radio_range=70.0)
    topology_id = client.register_topology(topology)
    session = client.open_session(topology_id, 5, budget_mj=50.0)
    rows = [rng.normal(25, 3, nodes) for _ in range(3)]
    for row in rows:
        session.feed(row)
    queries = [rng.normal(25, 3, nodes) for _ in range(requests)]
    return service, client, session, queries


def _count_service_hooks(requests: int) -> int:
    """Distributed-hook executions per request sequence, counted on an
    instrumented twin (client spans, trace adoptions, server spans,
    latency observations, slow-request offers — all over-counted)."""
    service, client, session, queries = _service_workload(
        requests, instrumented=True
    )
    for row in queries:
        session.query(row)
    hooks = 0
    for obs in (service.instrumentation, client.instrumentation):
        hooks += obs.spans.retained + obs.spans.dropped
        hooks += sum(h.count for h in obs.metrics.histograms.values())
    hooks += len(service.slow_requests)  # offers actually retained
    hooks += requests  # one trace adoption per client request
    return hooks


def _service_row(quick: bool) -> dict:
    requests = 60 if quick else 200
    loops = 10_000 if quick else 40_000
    hooks = _count_service_hooks(requests)
    # The null-hook costs and the bare request time are taken in
    # alternating rounds and the minimum of each kept, so numerator and
    # denominator come from the same stretch of host load; timed at
    # different moments, their ratio swung across the 2% bar.
    span_s = adopt_s = bare_s = float("inf")
    for _ in range(_SERVICE_ROUNDS):
        span_s = min(span_s, _per_call_null_span(loops))
        adopt_s = min(adopt_s, _per_call_null_adopt(loops))
        __, __, session, queries = _service_workload(
            requests, instrumented=False
        )
        start = time.perf_counter()
        for row in queries:
            session.query(row)
        bare_s = min(bare_s, time.perf_counter() - start)
    fraction = hooks * max(span_s, adopt_s) / bare_s
    return {
        "workload": f"service qps requests={requests}",
        "bare_s": bare_s,
        "span_ns": span_s * 1e9,
        "hooks": hooks,
        "overhead_fraction": fraction,
    }


def run(quick: bool = False) -> list[dict]:
    n, m = (30, 10) if quick else (60, 25)
    loops = 50_000 if quick else 200_000
    span_s = _per_call_null_span(loops)
    hooks = _count_hooks(n, m)

    planner = LPLFPlanner()
    bare_context = _context(n, m)
    bare_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        planner.plan(bare_context)
        bare_s = min(bare_s, time.perf_counter() - start)

    fraction = hooks * span_s / bare_s
    return [
        {
            "workload": f"plan lp-lf n={n} m={m}",
            "bare_s": bare_s,
            "span_ns": span_s * 1e9,
            "hooks": hooks,
            "overhead_fraction": fraction,
        },
        _service_row(quick),
    ]


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "obs_overhead",
        rows,
        columns=[
            "workload", "bare_s", "span_ns", "hooks", "overhead_fraction",
        ],
        title="Disabled-instrumentation overhead on the planning hot path",
        quick=quick,
    )
    payload = {
        "benchmark": "obs_overhead",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            # the 2% bar holds at every size, quick runs included
            "maxima": [{"metric": "overhead_fraction", "max": 0.02}],
            "enforced": True,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    # the singletons ARE the disabled path: no per-call allocation
    assert maybe_span(None, "x", a=1) is NULL_SPAN
    for row in rows:
        assert row["overhead_fraction"] < 0.02, row


def test_obs_overhead(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
