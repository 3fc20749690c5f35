"""Horizontally sharded service: N worker processes, one front door.

The single-process :class:`~repro.service.server.TopKService` tops out
at one core.  :class:`ShardedService` spawns ``workers`` child
processes, each hosting a full service (its own
:class:`~repro.service.cache.SharedPlanCache`, sessions, and socket
server on its own port), and :class:`ShardedClient` routes
every session to a worker by **rendezvous (highest-random-weight)
hash** of the session's content fingerprint — topology id, planner,
``k`` — so equal-content tenants always land on the same worker and
keep the per-shard exactly-once compile guarantee, while distinct
contents spread across cores.  This is the paper's base-station
partitioning played at process scale.

Workers share one **artifact directory** (see
:mod:`repro.service.artifacts`): the first worker to compile a
parametric form spills its arrays, and every other worker — including
one restarted cold — loads the mmap-backed entry instead of paying
the compile again.

Shutdown is graceful end to end: the parent sends each worker a
shutdown message, each worker drains its connections (in-flight
requests get their final replies) within the grace window, and only
then does the parent reap the process (SIGTERM/kill as the escalation
path).

Per-shard telemetry lands in the parent's optional
:class:`~repro.obs.Instrumentation` under ``service.shard.*`` —
worker-count and per-shard open-session gauges, routed-request
counters, and ``shard_lifecycle`` instant spans around spawn/shutdown.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import tempfile
import threading
from dataclasses import replace as dataclass_replace

from repro.errors import (
    ObservabilityError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs.distributed import (
    TelemetryAggregator,
    TelemetryServer,
    adopt_trace,
)
from repro.obs.metrics import Histogram
from repro.obs.spans import maybe_span
from repro.service import messages as msg
from repro.service.client import SocketClient, _BaseClient

READY_TIMEOUT_S = 120.0
"""Bound on worker startup (spawned interpreters import numpy/scipy)."""


def rendezvous_worker(key: str, workers: int) -> int:
    """The rendezvous-hash owner of ``key`` among ``workers`` shards.

    Deterministic across processes and runs (SHA-256, no seed), and
    *consistent*: adding a worker reassigns only the keys it wins,
    which is what keeps equal-content tenants co-located as a
    deployment scales.
    """
    if workers < 1:
        raise ServiceError("sharded routing needs at least one worker")
    best, best_score = 0, b""
    for index in range(workers):
        score = hashlib.sha256(f"{index}|{key}".encode()).digest()
        if score > best_score:
            best, best_score = index, score
    return best


def _session_route_key(topology_id: str, planner: str, k: int) -> str:
    """What a session's placement hashes on: its compile-content axes."""
    return f"{topology_id}|{planner}|{k}"


def _worker_main(index: int, host: str, conn, config) -> None:
    """One shard worker: a full service on its own port (child process).

    Reports ``("ready", port)`` on the pipe, then serves until the
    parent sends ``("shutdown", grace_seconds)`` (or the pipe dies),
    drains gracefully, and replies ``("stopped", cache_stats)``.  The
    socket server's own threads answer requests; this main thread
    serves the pipe.
    """
    from repro.obs import Instrumentation
    from repro.service.server import TopKService, serve

    # ring-mode spans: a long-lived worker keeps the newest trees and
    # counts evictions instead of silently dropping telemetry
    service = TopKService(
        config, instrumentation=Instrumentation(span_mode="ring")
    )
    try:
        server = serve(service, host, 0)
    except OSError as err:
        conn.send(("error", f"worker {index} failed to bind: {err}"))
        return
    conn.send(("ready", server.address[1]))
    grace = 5.0
    # telemetry polls are answered in-line; anything else stops the worker
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            grace = 0.0  # parent died: fast drain
            break
        if not isinstance(message, tuple) or not message:
            continue
        if message[0] == "telemetry":
            try:
                payload = service.telemetry_snapshot()
                payload["shard"] = str(index)
            except Exception as err:  # pragma: no cover - defensive
                payload = {"shard": str(index), "error": str(err)}
            try:
                conn.send(("telemetry", payload))
            except (BrokenPipeError, OSError):
                grace = 0.0
                break
            continue
        if message[0] == "shutdown":
            grace = float(message[1])
        break
    server.shutdown(grace)
    try:
        conn.send(("stopped", service.cache.stats()))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


class ShardedService:
    """Spawns and supervises N single-process service workers.

    Usable as a context manager::

        with ShardedService(workers=4) as sharded:
            client = sharded.client()
            ...

    Parameters
    ----------
    workers:
        Worker process count (each hosts a full service on one port).
    config:
        Per-worker :class:`~repro.service.server.ServiceConfig`;
        ``artifact_dir`` is overridden with the shared store path.
    artifact_dir:
        Directory for the cross-process compiled-artifact store; a
        private temporary directory (cleaned up on shutdown) when
        omitted.
    instrumentation:
        Optional parent-side :class:`~repro.obs.Instrumentation` for
        the ``service.shard.*`` gauges, counters and instant spans.
    telemetry_port:
        When not ``None``, :meth:`start` also brings up the live
        telemetry HTTP endpoint
        (:class:`~repro.obs.TelemetryServer`) on this port (0 picks a
        free one; see :attr:`telemetry` for the bound server).  Each
        HTTP request triggers a fresh :meth:`poll_telemetry` sweep.
    start_method:
        ``multiprocessing`` start method (default ``spawn``: immune to
        the parent's threads and event loops; ``fork`` is faster to
        boot where safe).
    """

    def __init__(
        self,
        workers: int = 2,
        config=None,
        *,
        host: str = "127.0.0.1",
        artifact_dir: str | None = None,
        instrumentation=None,
        telemetry_port: int | None = None,
        start_method: str = "spawn",
        grace_seconds: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ServiceError("a sharded service needs >= 1 worker")
        from repro.service.server import ServiceConfig

        self.workers = workers
        self.host = host
        self.config = config or ServiceConfig()
        self.instrumentation = instrumentation
        self.start_method = start_method
        self.grace_seconds = grace_seconds
        self._tmpdir = None
        if artifact_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-shard-artifacts-"
            )
            artifact_dir = self._tmpdir.name
        self.artifact_dir = artifact_dir
        self._processes: list = []
        self._pipes: list = []
        self.endpoints: list[tuple[str, int]] = []
        self._pipe_lock = threading.Lock()
        self.aggregator = TelemetryAggregator()
        self.telemetry_port = telemetry_port
        self.telemetry: "TelemetryServer | None" = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ShardedService":
        if self._processes:
            raise ServiceError("sharded service already started")
        obs = self.instrumentation
        context = multiprocessing.get_context(self.start_method)
        worker_config = dataclass_replace(
            self.config, artifact_dir=self.artifact_dir
        )
        with maybe_span(obs, "service.shard.spawn", workers=self.workers):
            for index in range(self.workers):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(index, self.host, child_end, worker_config),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._processes.append(process)
                self._pipes.append(parent_end)
            for index, pipe in enumerate(self._pipes):
                if not pipe.poll(READY_TIMEOUT_S):
                    self.shutdown(grace_seconds=0.0)
                    raise ServiceUnavailableError(
                        f"shard worker {index} did not report ready"
                        f" within {READY_TIMEOUT_S}s"
                    )
                status, payload = pipe.recv()
                if status != "ready":
                    self.shutdown(grace_seconds=0.0)
                    raise ServiceUnavailableError(str(payload))
                self.endpoints.append((self.host, int(payload)))
        if self.telemetry_port is not None:
            self.telemetry = TelemetryServer(
                self._collect_telemetry,
                host=self.host,
                port=self.telemetry_port,
            ).start()
        if obs is not None:
            obs.gauge("service.shard.workers").set(float(self.workers))
            obs.event(
                "shard_lifecycle",
                phase="spawned",
                workers=self.workers,
                ports=[port for __, port in self.endpoints],
            )
        return self

    def shutdown(self, grace_seconds: float | None = None) -> None:
        """Gracefully stop every worker (idempotent).

        Sends the drain message, waits ``grace + 5`` seconds per
        worker, then escalates to SIGTERM/kill for stragglers.
        """
        grace = self.grace_seconds if grace_seconds is None else grace_seconds
        obs = self.instrumentation
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None
        with maybe_span(obs, "service.shard.shutdown", grace=grace):
            with self._pipe_lock:
                for pipe in self._pipes:
                    try:
                        pipe.send(("shutdown", grace))
                    except (BrokenPipeError, OSError):
                        pass
            for process, pipe in zip(self._processes, self._pipes):
                process.join(timeout=grace + 5.0)
                if process.is_alive():  # pragma: no cover - escalation
                    process.terminate()
                    process.join(timeout=2.0)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=2.0)
                pipe.close()
        self._processes = []
        self._pipes = []
        self.endpoints = []
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        if obs is not None:
            obs.gauge("service.shard.workers").set(0.0)
            obs.event("shard_lifecycle", phase="stopped", workers=0)

    def __enter__(self) -> "ShardedService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- telemetry ------------------------------------------------------
    def poll_telemetry(
        self, timeout_s: float = 10.0
    ) -> TelemetryAggregator:
        """Sweep every worker for a telemetry snapshot; fold into
        :attr:`aggregator` (which keeps the latest per shard and
        derives qps from successive sweeps).

        Best-effort by design: a dead or slow worker simply
        contributes nothing to this sweep — its previous snapshot (if
        any) stays visible, and the sweep never raises.
        """
        with self._pipe_lock:
            polled = []
            for index, pipe in enumerate(self._pipes):
                try:
                    pipe.send(("telemetry",))
                except (BrokenPipeError, OSError):
                    continue
                polled.append((index, pipe))
            for index, pipe in polled:
                try:
                    if not pipe.poll(timeout_s):
                        continue
                    tag, payload = pipe.recv()
                except (EOFError, OSError):
                    continue
                if tag != "telemetry" or not isinstance(payload, dict):
                    continue  # e.g. a "stopped" racing a shutdown
                if "error" in payload:
                    continue
                self.aggregator.ingest(payload)
        return self.aggregator

    def _collect_telemetry(self) -> TelemetryAggregator:
        """The :class:`TelemetryServer` ``collect`` hook."""
        return self.poll_telemetry()

    # -- routing & clients ----------------------------------------------
    def worker_for(self, topology_id: str, planner: str, k: int) -> int:
        """Which worker owns sessions of this content (deterministic)."""
        return rendezvous_worker(
            _session_route_key(topology_id, planner, k), self.workers
        )

    def client(self, *, timeout_s: float = 30.0) -> "ShardedClient":
        """A routed client over every live worker endpoint."""
        if not self.endpoints:
            raise ServiceError("sharded service is not running; start() it")
        return ShardedClient(
            self.endpoints,
            timeout_s=timeout_s,
            instrumentation=self.instrumentation,
        )


class ShardedClient(_BaseClient):
    """One client surface over many shard workers.

    Sessions are addressed ``w<shard>/<worker session id>`` so every
    later request routes straight to the owning worker; topology
    registration broadcasts (it is content-keyed and idempotent), and
    stats fan out and aggregate.  The pipelined surface
    (``submit_nowait``/``drain``/``stream``) preserves global submit
    order while each underlying connection batches its own frames.
    """

    def __init__(
        self,
        endpoints,
        *,
        timeout_s: float = 30.0,
        instrumentation=None,
    ) -> None:
        self.endpoints = [(str(h), int(p)) for h, p in endpoints]
        if not self.endpoints:
            raise ServiceError("sharded client needs >= 1 endpoint")
        self.timeout_s = timeout_s
        self.instrumentation = instrumentation
        self._clients: dict[int, SocketClient] = {}
        self._submit_order: list[int] = []

    @property
    def workers(self) -> int:
        return len(self.endpoints)

    def _shard_client(self, index: int) -> SocketClient:
        client = self._clients.get(index)
        if client is None:
            host, port = self.endpoints[index]
            client = SocketClient(
                host,
                port,
                timeout_s=self.timeout_s,
                instrumentation=self.instrumentation,
            )
            self._clients[index] = client
        return client

    # -- routing --------------------------------------------------------
    def _split_session_id(self, session_id: str) -> tuple[int, str]:
        try:
            prefix, inner = session_id.split("/", 1)
            shard = int(prefix[1:])
            if not prefix.startswith("w") or not (
                0 <= shard < self.workers
            ):
                raise ValueError(session_id)
        except (ValueError, IndexError):
            raise ServiceError(
                f"malformed sharded session id {session_id!r}; expected"
                " 'w<shard>/<session>'"
            ) from None
        return shard, inner

    def _join_session_id(self, shard: int, session_id: str) -> str:
        return f"w{shard}/{session_id}"

    def _route(self, request: msg.Message) -> tuple[int, msg.Message]:
        """The owning shard plus the request rewritten for it."""
        if isinstance(request, msg.OpenSession):
            shard = rendezvous_worker(
                _session_route_key(
                    request.topology_id, request.planner, request.k
                ),
                self.workers,
            )
            return shard, request
        session_id = getattr(request, "session_id", None)
        if session_id is None:
            raise ServiceError(
                f"{request.kind!r} has no single-shard route; it is"
                " broadcast/aggregated by the sharded client"
            )
        shard, inner = self._split_session_id(session_id)
        return shard, msg.with_session_id(request, inner)

    def _namespace_reply(self, shard: int, reply: msg.Message) -> msg.Message:
        inner = getattr(reply, "session_id", None)
        if inner:
            return msg.with_session_id(
                reply, self._join_session_id(shard, inner)
            )
        return reply

    # -- lockstep -------------------------------------------------------
    def request(self, request: msg.Message) -> msg.Message:
        obs = self.instrumentation
        if isinstance(request, msg.RegisterTopology):
            return self._broadcast_register(request)
        if isinstance(request, msg.GetStats):
            return self._aggregate_stats()
        shard, routed = self._route(request)
        if obs is not None:
            obs.counter(f"service.shard.requests.{shard}").inc()
        with maybe_span(
            obs, "service.shard.request", shard=shard, kind=request.kind
        ) as span:
            # the dispatch span joins (or starts) the distributed
            # trace; the nested SocketClient span then inherits the
            # same trace id and carries it to the worker
            adopt_trace(obs, span)
            reply = self._shard_client(shard).request(routed)
        return self._namespace_reply(shard, reply)

    def _broadcast_register(
        self, request: msg.RegisterTopology
    ) -> msg.Message:
        """Every worker must know the topology: any of them may own a
        session content that hashes to it."""
        replies = [
            self._shard_client(index).request(request)
            for index in range(self.workers)
        ]
        return replies[0]

    def _aggregate_stats(self) -> msg.StatsReply:
        obs = self.instrumentation
        per_shard = {}
        sessions_open = sessions_total = 0
        topologies = 0
        for index in range(self.workers):
            reply = self._shard_client(index).request(msg.GetStats())
            per_shard[str(index)] = reply.counters
            sessions_open += reply.sessions_open
            sessions_total += reply.sessions_total
            topologies = max(topologies, reply.topologies)
            if obs is not None:
                obs.gauge(
                    f"service.shard.{index}.sessions_open"
                ).set(float(reply.sessions_open))
        return msg.StatsReply(
            sessions_open=sessions_open,
            sessions_total=sessions_total,
            topologies=topologies,
            counters={
                "workers": self.workers,
                "per_shard": per_shard,
                "histograms": self._merge_histograms(per_shard),
            },
        )

    @staticmethod
    def _merge_histograms(per_shard: dict) -> dict:
        """Fleet latency summaries from the shards' mergeable dumps.

        Bucket counts add exactly and min/max combine exactly, so the
        fleet p50/p95/p99 here are true merged quantiles — not an
        average of per-shard percentiles, which is meaningless.
        """
        merged: dict[str, Histogram] = {}
        for counters in per_shard.values():
            for name, dump in (counters.get("histograms") or {}).items():
                try:
                    hist = Histogram.from_dict(name, dump)
                except ObservabilityError:
                    continue  # a malformed dump stays out of the fleet merge
                if name in merged:
                    merged[name].merge(hist)
                else:
                    merged[name] = hist
        summaries = {}
        for name, hist in sorted(merged.items()):
            if not hist.count:
                continue
            p50, p95, p99 = hist.quantiles(50.0, 95.0, 99.0)
            summaries[name] = {
                "count": hist.count,
                "mean": hist.total / hist.count,
                "min": hist.min,
                "max": hist.max,
                "p50": p50,
                "p95": p95,
                "p99": p99,
            }
        return summaries

    # -- pipelining -----------------------------------------------------
    def submit_nowait(self, request: msg.Message) -> int:
        """Pipeline one frame on its owning shard's connection.

        Returns a client-level sequence number; ``drain``/``stream``
        interleave the per-shard reply streams back into global submit
        order.
        """
        shard, routed = self._route(request)
        self._shard_client(shard).submit_nowait(routed)
        self._submit_order.append(shard)
        return len(self._submit_order) - 1

    def stream(self):
        order, self._submit_order = self._submit_order, []
        streams = {
            shard: self._shard_client(shard).stream()
            for shard in set(order)
        }

        def _merged():
            for shard in order:
                yield self._namespace_reply(shard, next(streams[shard]))

        return _merged()

    @property
    def pending(self) -> int:
        return len(self._submit_order)

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        self._submit_order = []

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
