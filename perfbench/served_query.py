"""served-query: the deployed read path over the sharded service.

A :class:`~repro.service.shard.ShardedService` with one worker process
per core, started the default way (spawned workers).  ``SESSIONS``
LP+LF tenants with equal content (same topology, same sample window,
same ``k`` and budget) are opened and each answers one warm-up query
in set-up, so the plan is compiled once (the other tenants hit the
shared plan cache) and installed everywhere; ``STEADY_QUERIES`` more
bring the workers to their steady state before timing starts.
One client thread then keeps one ``SubmitQuery`` in flight,
round-robin over the sessions, with fresh readings per query; the
routed client holds one connection per shard.  During the timed
window the client and the workers run on one CPU
(:func:`common.one_cpu`): with one request in flight only one of them
is runnable at a time.

Sessions are placed by the service's rendezvous hash of their content,
so equal-content tenants share a shard; ``service.shard.max_session_share``
in the traced run reports where they landed.

Correctness: after the timed window every reply must equal the reply
a fresh in-process :class:`~repro.service.server.TopKService`, set up
the same way, gives for the same request stream.

The traced run replays each op through the layers in turn:
the routed client again with client-side tracing on, a direct
:class:`~repro.service.client.SocketClient` to the owning worker, the
v2 codec (``encode_frame``/``decode_frame`` on the actual request and
reply), ``TopKService.handle`` in-process, a bare
``TopKEngine.query`` and ``Simulator.run_collection``.  ``transport``
(socket, asyncio loop and process hop) is what the direct socket
call costs beyond the codec and ``handle``.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from common import (
    BenchmarkError,
    closed_loop,
    cores,
    e2e_result,
    ledger_result,
    median_setup,
    one_cpu,
    peak_rss_mb,
)
from repro.datagen.gaussian import random_gaussian_field
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger, Instrumentation
from repro.planners.base import PlannerConfig
from repro.planners.lp_lf import LPLFPlanner
from repro.query.engine import EngineConfig, TopKEngine
from repro.service import messages as msg
from repro.service import wire
from repro.service.cache import SharedPlanCache
from repro.service.client import InProcessClient, SocketClient
from repro.service.server import ServiceConfig, TopKService
from repro.service.shard import ShardedClient, ShardedService
from repro.simulation.runtime import Simulator

SESSIONS = 20
N = 60
K = 5
BUDGET_MJ = 33.0
WINDOW = 25
CHUNK = 1024
"""Readings generated per batch of queries."""
STEADY_QUERIES = 4500
"""Untimed queries between set-up and the timed window: enough to fill
a worker's span ring (8192 spans, two per query), whose evictions every
later request pays, so the window sees the service's steady state.
They are the same work the window times, so ``setup_s`` leaves them
out."""
ACCOUNTED_OPS = 2000
"""Ops every run covers; accuracy and energy average over exactly these."""
TRACE_SHARE = 0.75
"""Share of ``--seconds`` the traced run's interleaved replay may take."""


class Inputs:
    """Topology, training window and query readings from the run seed.

    ``queries()`` restarts the readings stream, so the checks and the
    traced passes replay exactly what the timed window sent.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, SESSIONS, N])
        self.topology = Topology(random_topology(N, rng=rng).cache_token())
        self.field = random_gaussian_field(N, rng)
        self.window = self.field.trace(WINDOW, rng).values
        self.warmup = self.field.trace(SESSIONS, rng).values
        self.steady = self.field.trace(STEADY_QUERIES, rng).values

    def queries(self):
        """Endless fresh readings, one per query."""
        rng = np.random.default_rng([self.seed, SESSIONS, N, 1])
        while True:
            yield from self.field.trace(CHUNK, rng).values


def _prepare(client, inputs: Inputs):
    """Register, open every session, feed its window, install its plan."""
    topology_id = client.register_topology(inputs.topology)
    handles = [
        client.open_session(
            topology_id, K, planner="lp-lf", budget_mj=BUDGET_MJ,
            window_capacity=WINDOW,
        )
        for __ in range(SESSIONS)
    ]
    for handle, readings in zip(handles, inputs.warmup):
        for sample in inputs.window:
            handle.feed(sample)
        handle.query(readings)
    return handles


def _steady(handles, inputs: Inputs) -> None:
    for index, readings in enumerate(inputs.steady):
        handles[index % SESSIONS].query(readings)


def _config() -> ServiceConfig:
    # equal-content sessions share one shard, so one worker must admit
    # all of them
    return ServiceConfig(max_sessions=SESSIONS)


def _setup(inputs: Inputs):
    sharded = ShardedService(workers=cores(), config=_config()).start()
    client = sharded.client()
    try:
        handles = _prepare(client, inputs)
    except BaseException:
        client.close()
        sharded.shutdown()
        raise

    def close() -> None:
        client.close()
        sharded.shutdown()

    return (sharded, client, handles), close


def _expected_replies(inputs: Inputs, session_ids, ops: int):
    """The in-process service's replies to the first ``ops`` queries."""
    service = TopKService(_config())
    inner = _prepare(InProcessClient(service), inputs)
    queries = inputs.queries()
    for index in range(ops):
        session = index % SESSIONS
        reply = service.handle(
            msg.SubmitQuery(
                session_id=inner[session].session_id, readings=next(queries)
            )
        )
        yield dataclasses.replace(reply, session_id=session_ids[session])


def run(seed: int, seconds: float):
    inputs = Inputs(seed)
    queries = inputs.queries()
    digests = []
    accounted = []

    def op(index: int) -> float:
        readings = next(queries)
        started = time.perf_counter()
        reply = handles[index % SESSIONS].query(readings)
        elapsed = time.perf_counter() - started
        digests.append(hash(reply))
        if index < ACCOUNTED_OPS:
            accounted.append(reply)
        return elapsed

    (sharded, __, handles), close, setup_s = median_setup(
        lambda: _setup(inputs)
    )
    try:
        with one_cpu():
            _steady(handles, inputs)
            window = closed_loop(op, seconds, ACCOUNTED_OPS)
        rss = peak_rss_mb()
    finally:
        close()

    session_ids = [h.session_id for h in handles]
    failed = sum(
        digest != hash(expected)
        for digest, expected in zip(
            digests, _expected_replies(inputs, session_ids, window.ops)
        )
    )
    return e2e_result(
        window,
        setup_s,
        rss,
        accuracy=statistics.fmean(r.accuracy for r in accounted),
        energy_mj=statistics.fmean(r.energy_mj for r in accounted),
        failed=failed,
        note=(
            f"served-query: {window.ops} queries over {SESSIONS} sessions"
            f" on {sharded.workers} workers, {failed} mismatches against a"
            " fresh in-process service"
        ),
    )


def _bare_engines(inputs: Inputs):
    """Engines built the way ``TopKService.open_session`` builds them,
    each fed the window and its warm-up query."""
    energy = EnergyModel.mica2()
    defaults = ServiceConfig()
    cache = SharedPlanCache(
        capacity=defaults.cache_capacity,
        replan_capacity=defaults.replan_cache_capacity,
    )
    engines = []
    for seq, readings in zip(range(1, SESSIONS + 1), inputs.warmup):
        engine = TopKEngine(
            inputs.topology,
            energy,
            k=K,
            planner=LPLFPlanner(
                config=PlannerConfig(
                    replan_cache=cache.replan_cache, form_cache=cache
                )
            ),
            config=EngineConfig(budget_mj=BUDGET_MJ, window_capacity=WINDOW),
            rng=np.random.default_rng(seq),
            ledger=EnergyLedger(inputs.topology.n),
        )
        for sample in inputs.window:
            engine.feed_sample(np.asarray(sample, dtype=float))
        engine.query(np.asarray(readings, dtype=float))
        engines.append(engine)
    return engines


def _codec_seconds(request: msg.Message, reply: msg.Message):
    """Both directions of the v2 codec on one exchange: seconds, bytes."""
    started = time.perf_counter()
    request_frame = wire.encode_frame(request)
    wire.decode_frame_trace(request_frame[4:], vectors="array")
    reply_frame = wire.encode_frame(reply)
    decoded, __ = wire.decode_frame(reply_frame[4:])
    elapsed = time.perf_counter() - started
    if decoded != reply:
        raise BenchmarkError("v2 codec round trip changed a reply")
    return elapsed, len(request_frame) + len(reply_frame)


def _replay(inputs: Inputs, seconds: float):
    """Every op through each layer in turn; per-layer seconds per op.

    Returns ``(window, timings, wire bytes, stats reply, handles)``.
    The four round trips of an op rotate so none always runs first (a
    worker woken from idle answers the first one slower).
    """
    (sharded, client, handles), close = _setup(inputs)
    traced_client = ShardedClient(
        sharded.endpoints, instrumentation=Instrumentation()
    )
    sockets = {}
    service = TopKService(_config())
    inner = _prepare(InProcessClient(service), inputs)
    engines = _bare_engines(inputs)
    side = Simulator(
        inputs.topology, EnergyModel.mica2(),
        ledger=EnergyLedger(inputs.topology.n),
    )
    queries = inputs.queries()
    timings = {
        name: []
        for name in ("op", "plain", "traced", "socket", "codec", "handle",
                     "query", "collect")
    }
    wire_bytes = 0
    mismatches = 0

    def timed(name, call, *args):
        started = time.perf_counter()
        value = call(*args)
        timings[name].append(time.perf_counter() - started)
        return value

    def op(index: int) -> float:
        nonlocal wire_bytes, mismatches
        session = index % SESSIONS
        readings = next(queries)
        session_id = handles[session].session_id
        request = msg.SubmitQuery(session_id=session_id, readings=readings)
        shard, inner_id = session_id[1:].split("/", 1)
        if shard not in sockets:
            host, port = sharded.endpoints[int(shard)]
            sockets[shard] = SocketClient(host, port)
        routed = msg.SubmitQuery(session_id=inner_id, readings=readings)
        calls = [
            ("op", handles[session].query, readings),
            ("plain", client.request, request),
            ("traced", traced_client.request, request),
            ("socket", sockets[shard].request, routed),
        ]
        shift = index % len(calls)
        replies = {}
        for name, call, arg in calls[shift:] + calls[:shift]:
            replies[name] = timed(name, call, arg)
        direct = replies["socket"]
        codec_s, frame_bytes = _codec_seconds(routed, direct)
        timings["codec"].append(codec_s)
        wire_bytes += frame_bytes
        handled = timed(
            "handle", service.handle,
            msg.SubmitQuery(
                session_id=inner[session].session_id, readings=readings
            ),
        )
        engine = engines[session]
        vector = np.asarray(readings, dtype=float)
        result = timed("query", engine.query, vector)
        timed("collect", side.run_collection, engine.plan, vector)

        bare = msg.QueryReply(
            session_id=session_id,
            nodes=tuple(int(n) for __, n in result.returned),
            values=tuple(float(v) for v, __ in result.returned),
            energy_mj=float(result.energy_mj),
            accuracy=float(result.accuracy),
        )
        mismatches += not (
            replies["op"] == replies["plain"] == replies["traced"] == bare
            == dataclasses.replace(direct, session_id=session_id)
            == dataclasses.replace(handled, session_id=session_id)
        )
        return timings["op"][-1]

    try:
        with one_cpu():
            _steady(handles, inputs)
            window = closed_loop(op, seconds, 4 * SESSIONS)
        stats = client.stats()
    finally:
        traced_client.close()
        for socket_client in sockets.values():
            socket_client.close()
        close()
    if mismatches:
        raise BenchmarkError(
            f"served-query traced replay differs from the untraced run"
            f" on {mismatches} of {window.ops} queries"
        )
    return window, timings, wire_bytes, stats, handles


def trace(seed: int, seconds: float):
    """The per-layer ledger: every op replayed through each layer in turn.

    Each layer's self time is the mean time of its call minus the mean
    time of the next layer down, so the ledger telescopes: the
    residual left over is the ``SessionHandle`` wrapper around the
    routed client's ``request``.
    """
    window, timings, wire_bytes, stats, handles = _replay(
        Inputs(seed), seconds * TRACE_SHARE
    )
    ops = window.ops

    def mean_ms(name: str) -> float:
        return statistics.fmean(timings[name]) * 1e3

    layer_ms = {
        "service.shard": mean_ms("plain") - mean_ms("socket"),
        "transport": mean_ms("socket") - mean_ms("codec") - mean_ms("handle"),
        "service.wire.codec": mean_ms("codec"),
        "service.server": mean_ms("handle") - mean_ms("query"),
        "query.engine": mean_ms("query") - mean_ms("collect"),
        "simulation.collect": mean_ms("collect"),
    }
    per_shard = stats.counters["per_shard"]
    hits = sum(c["cache"]["hits"] for c in per_shard.values())
    misses = sum(c["cache"]["misses"] for c in per_shard.values())
    owners = [h.session_id.split("/", 1)[0] for h in handles]
    extra = {
        "service.wire.bytes_per_op": wire_bytes / ops,
        "service.cache.hit_ratio": hits / max(hits + misses, 1),
        "service.shard.max_session_share": (
            max(owners.count(owner) for owner in set(owners)) / SESSIONS
        ),
    }
    note = (
        f"served-query trace: {ops} queries; sessions per shard"
        f" {sorted((o, owners.count(o)) for o in set(owners))};"
        f" shared plan cache {hits} hits / {misses} misses"
    )
    return ledger_result(
        layer_ms,
        op_ms=mean_ms("op"),
        untraced_ms=mean_ms("op"),
        traced_over_untraced=mean_ms("traced") / mean_ms("plain"),
        extra=extra,
        attempted=ops,
        note=note,
    )
