"""The multi-tenant service core plus its asyncio socket front end.

:class:`TopKService` is deliberately synchronous and
transport-agnostic: :meth:`TopKService.handle` maps one typed request
to one typed reply (raising :mod:`repro.errors` types), and
:meth:`TopKService.handle_frame` is the same thing over binary wire
frames with failures serialized as
:class:`~repro.service.messages.ErrorReply` and correlation ids echoed
verbatim.  The asyncio layer (:func:`serve`, :class:`ServiceThread`)
moves frames between sockets and a thread-pool executor — per-session
serialization and backpressure live in :class:`.session.Session`, so
the core behaves identically under the in-process client and the
socket.

The socket front end is **pipelined**: a per-connection reader task
keeps pulling frames (bounded read-ahead, oversized frames rejected)
while a processor task answers them strictly in order, and replies are
coalesced — many encoded frames are joined into one ``write`` when a
burst is in flight — so a streaming client pays one syscall per batch
rather than one round trip per request.  :meth:`ServiceServer.shutdown`
is the graceful path: stop accepting, stop reading, finish every
already-read request, flush the final replies, then close.

Shared state across tenants:

- a **topology registry** keyed by
  :func:`~repro.plans.serialize.topology_fingerprint` (register once,
  open many sessions against the id);
- one :class:`~repro.service.cache.SharedPlanCache` — every session's
  planner is built with it (via
  :class:`~repro.planners.base.PlannerConfig`), so equal-content
  sessions compile each LP exactly once;
- one optional :class:`~repro.obs.Instrumentation` threaded through
  engines, planners, and the ``service.request`` spans, which is what
  makes ``python -m repro trace --service`` work against a live
  service.

Each session gets its *own* :class:`~repro.obs.EnergyLedger` (energy
attribution is a per-tenant question), surfaced through
:meth:`TopKService.ledger_of`.
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    AdmissionError,
    ProtocolError,
    ServiceError,
    ServiceUnavailableError,
    SessionError,
)
from repro.network.energy import EnergyModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger
from repro.obs.distributed import REQUEST_LATENCY_METRIC, SlowRequestLog
from repro.obs.spans import NULL_SPAN, maybe_span
from repro.plans.serialize import plan_to_dict, topology_fingerprint
from repro.planners.base import PlannerConfig
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from repro.query.engine import EngineConfig, TopKEngine
from repro.service import messages as msg
from repro.service import wire
from repro.service.cache import SharedPlanCache
from repro.service.session import Session

PLANNERS = ("greedy", "lp-lf", "lp-no-lf", "proof")


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of the service (admission and caching)."""

    max_sessions: int = 16
    """Admission control: concurrent *open* sessions beyond this are
    refused with :class:`~repro.errors.AdmissionError`."""

    queue_limit: int = 8
    """Per-session pending-request bound; the next request is shed with
    :class:`~repro.errors.OverloadError`."""

    session_ttl_s: float = 300.0
    """Idle seconds after which an open session expires."""

    cache_capacity: int = 32
    """Entries in the shared compiled-plan pool."""

    replan_cache_capacity: int = 16
    """Entries in the shared sample-independent-block cache."""

    ledger_capacity_mj: float | None = None
    """Optional per-node battery capacity for each session's
    :class:`~repro.obs.EnergyLedger` (enables lifetime projection)."""

    artifact_dir: str | None = None
    """Optional directory for the cross-process compiled-artifact
    store (:class:`~repro.service.artifacts.ArtifactStore`): compiled
    parametric forms spill here keyed by content, so a cold process
    (a fresh shard worker, say) loads arrays instead of recompiling."""

    blob_dir: str | None = None
    """Optional directory for the same-host shared-memory fast path:
    advertised to clients in the accept line, who may then ship large
    float payloads as :class:`~repro.service.artifacts.BlobSpool`
    references instead of socket bytes."""


class TopKService:
    """Hosts many concurrent :class:`~repro.query.engine.TopKEngine`
    sessions over shared topologies and caches.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig` (defaults are test-friendly).
    energy:
        Energy model shared by all sessions (default mica2).
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; request spans,
        cache counters, and every engine's telemetry land in it.
    clock:
        Monotonic seconds source for idle expiry (default
        ``time.monotonic``); injectable so expiry tests are exact.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        energy: EnergyModel | None = None,
        instrumentation=None,
        clock=None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.energy = energy or EnergyModel.mica2()
        self.instrumentation = instrumentation
        self.clock = clock or time.monotonic
        artifacts = None
        if self.config.artifact_dir is not None:
            from repro.service.artifacts import ArtifactStore

            artifacts = ArtifactStore(
                self.config.artifact_dir, instrumentation=instrumentation
            )
        self.cache = SharedPlanCache(
            capacity=self.config.cache_capacity,
            replan_capacity=self.config.replan_cache_capacity,
            instrumentation=instrumentation,
            artifacts=artifacts,
        )
        self._topologies: dict[str, Topology] = {}
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self._session_seq = 0
        self._draining = False
        self.sessions_total = 0
        self._started_s = self.clock()
        self.slow_requests = SlowRequestLog()
        self._wire_lock = threading.Lock()
        self._wire = {
            "connections": 0,
            "requests": 0,
            "request_bytes": 0,
            "reply_bytes": 0,
        }

    # -- shared resources ----------------------------------------------
    def register_topology(self, parents) -> str:
        """Install a topology; returns its content id (idempotent)."""
        topology = Topology([int(p) for p in parents])
        topology_id = topology_fingerprint(topology)
        with self._lock:
            self._topologies.setdefault(topology_id, topology)
        return topology_id

    def topology(self, topology_id: str) -> Topology:
        try:
            return self._topologies[topology_id]
        except KeyError:
            raise ServiceError(
                f"unknown topology {topology_id!r}; register it first"
            ) from None

    def _make_planner(self, name: str):
        """A fresh planner wired into the shared cache pool."""
        shared = PlannerConfig(
            replan_cache=self.cache.replan_cache, form_cache=self.cache
        )
        if name == "lp-lf":
            return LPLFPlanner(config=shared)
        if name == "lp-no-lf":
            return LPNoLFPlanner(config=shared)
        if name == "greedy":
            return GreedyPlanner()
        if name == "proof":
            return ProofPlanner()
        raise ServiceError(
            f"unknown planner {name!r}; available: {', '.join(PLANNERS)}"
        )

    # -- session lifecycle ---------------------------------------------
    def _expire_idle(self) -> None:
        now = self.clock()
        for session in self._sessions.values():
            if session.expire_if_idle(now, self.config.session_ttl_s):
                if self.instrumentation is not None:
                    self.instrumentation.counter(
                        "service.sessions_expired"
                    ).inc()
                    self.instrumentation.event(
                        "session_expired",
                        session_id=session.session_id,
                        idle_s=session.idle_seconds(now),
                    )

    def begin_drain(self) -> None:
        """Flip the service into graceful-shutdown mode.

        New sessions are refused and existing sessions stop accepting
        new work (both with :class:`~repro.errors.ServiceUnavailableError`,
        which clients treat as retry-elsewhere); requests already
        admitted keep running to completion, and ``close_session`` /
        ``get_stats`` stay available so clients can wind down cleanly.
        """
        with self._lock:
            self._draining = True
            for session in self._sessions.values():
                session.begin_drain()

    def open_session(self, request: msg.OpenSession) -> Session:
        topology = self.topology(request.topology_id)
        planner = self._make_planner(request.planner)
        with self._lock:
            if self._draining:
                raise ServiceUnavailableError(
                    "service is draining for shutdown; no new sessions"
                )
            self._expire_idle()
            open_now = sum(
                1 for s in self._sessions.values() if s.is_open
            )
            if open_now >= self.config.max_sessions:
                raise AdmissionError(
                    f"service at capacity ({open_now} open sessions,"
                    f" limit {self.config.max_sessions}); retry after"
                    " closing one"
                )
            self._session_seq += 1
            self.sessions_total += 1
            session_id = f"s{self._session_seq:04d}"
            engine = TopKEngine(
                topology,
                self.energy,
                k=request.k,
                planner=planner,
                config=EngineConfig(
                    budget_mj=request.budget_mj,
                    window_capacity=request.window_capacity,
                    replan_every=request.replan_every,
                    track_truth=request.track_truth,
                ),
                rng=np.random.default_rng(self._session_seq),
                instrumentation=self.instrumentation,
                ledger=EnergyLedger(
                    topology.n,
                    capacity_mj=self.config.ledger_capacity_mj,
                ),
            )
            session = Session(
                session_id,
                request.topology_id,
                engine,
                queue_limit=self.config.queue_limit,
                clock=self.clock,
            )
            self._sessions[session_id] = session
        if self.instrumentation is not None:
            self.instrumentation.counter("service.sessions_opened").inc()
        return session

    def session(self, session_id: str) -> Session:
        with self._lock:
            self._expire_idle()
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        session.ensure_open()
        return session

    def ledger_of(self, session_id: str) -> EnergyLedger:
        """The per-session energy ledger (open or closed sessions)."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        return session.engine.ledger

    @property
    def open_sessions(self) -> int:
        with self._lock:
            return sum(1 for s in self._sessions.values() if s.is_open)

    # -- request handling ----------------------------------------------
    def handle(self, request: msg.Message, *, trace=None) -> msg.Message:
        """One typed request to one typed reply (typed errors raised).

        ``trace`` is an optional
        :class:`~repro.obs.distributed.TraceContext` decoded off the
        wire; when present the request span is annotated with it, which
        stitches this process's ``service.request`` subtree (plan →
        compile → solve and all) into the caller's distributed trace.
        """
        if request.kind not in msg.REQUEST_KINDS:
            raise ServiceError(
                f"{request.kind!r} is a reply kind, not a request"
            )
        obs = self.instrumentation
        if obs is not None:
            obs.counter("service.requests").inc()
            obs.counter(f"service.requests.{request.kind}").inc()
        span = maybe_span(
            obs, "service.request", kind=request.kind,
            session=getattr(request, "session_id", None),
        )
        if trace is not None and span is not NULL_SPAN:
            span.annotate(
                trace_id=trace.trace_id,
                parent_span_id=trace.parent_span_id,
            )
        try:
            with span:
                try:
                    return self._dispatch(request)
                except Exception as err:
                    if obs is not None:
                        obs.counter(
                            f"service.errors.{type(err).__name__}"
                        ).inc()
                    raise
        finally:
            if obs is not None:
                obs.histogram(REQUEST_LATENCY_METRIC).observe(
                    span.duration_s
                )
                self.slow_requests.offer(span)

    def handle_frame(self, body: bytes, spool=None) -> bytes:
        """Binary wire transport shim over :meth:`handle`.

        One frame body in, one complete reply frame (length prefix
        included) out.  Every failure — protocol or application — comes
        back as an :class:`~repro.service.messages.ErrorReply` frame, so
        a socket client never sees a dropped request, and the request's
        correlation id is echoed when it was decodable (errors
        included), which is the contract pipelined clients rely on.
        Float payloads are decoded in zero-copy ``vectors="array"``
        mode — the data plane never materializes tuples for a batch's
        readings matrix.
        """
        cid = None
        try:
            request, cid, trace = wire.decode_frame_trace(
                body, vectors="array", spool=spool
            )
            reply = self.handle(request, trace=trace)
        except Exception as err:  # typed errors included
            reply = msg.error_to_reply(err)
        try:
            return wire.encode_frame(reply, cid=cid, spool=spool)
        except ProtocolError as err:  # reply exceeds the frame bound
            return wire.encode_frame(msg.error_to_reply(err), cid=cid)

    # -- wire accounting ------------------------------------------------
    def record_connection(self) -> None:
        """Count one socket connection whose preamble was accepted."""
        with self._wire_lock:
            self._wire["connections"] += 1
        if self.instrumentation is not None:
            self.instrumentation.counter("service.wire.connections").inc()

    def record_wire(self, request_bytes: int, reply_bytes: int) -> None:
        """Account one request/reply exchange's bytes on the wire."""
        with self._wire_lock:
            self._wire["requests"] += 1
            self._wire["request_bytes"] += request_bytes
            self._wire["reply_bytes"] += reply_bytes
        obs = self.instrumentation
        if obs is not None:
            obs.histogram("service.wire.request_bytes").observe(
                request_bytes
            )
            obs.histogram("service.wire.reply_bytes").observe(reply_bytes)

    def wire_stats(self) -> dict:
        """Connection count, byte totals and bytes-per-request summary
        (the ``counters["wire"]`` section of :class:`GetStats`)."""
        with self._wire_lock:
            snapshot = dict(self._wire)
        requests = snapshot["requests"]
        snapshot["bytes_per_request"] = (
            round(
                (snapshot["request_bytes"] + snapshot["reply_bytes"])
                / requests,
                1,
            )
            if requests
            else None
        )
        return snapshot

    def blob_counters(self) -> dict:
        """The ``service.blobs.*`` counter values (shared-memory spool
        outcomes), keyed by outcome suffix; empty when uninstrumented."""
        obs = self.instrumentation
        if obs is None:
            return {}
        prefix = "service.blobs."
        return {
            name[len(prefix):]: counter.value
            for name, counter in obs.metrics.counters.items()
            if name.startswith(prefix)
        }

    def _histogram_merge_dumps(self) -> dict:
        """Mergeable dumps of every ``service.*`` histogram (request
        latency, wire bytes): the stats-reply form shard
        aggregation merges with exact min/max and bucket quantiles."""
        obs = self.instrumentation
        if obs is None:
            return {}
        return {
            name: hist.to_merge_dict()
            for name, hist in obs.metrics.histograms.items()
            if name.startswith("service.")
        }

    def telemetry_snapshot(self) -> dict:
        """One self-describing telemetry snapshot of this process.

        The unit the distributed plane is built from: shard workers
        ship it over their parent Pipe into a
        :class:`~repro.obs.distributed.TelemetryAggregator`, which
        tags it by shard, derives qps from successive snapshots, and
        merges the histogram dumps into fleet quantiles.  ``ts`` is
        wall-clock (comparable across same-host processes); span
        ``start_s`` values are the shared monotonic clock, so merged
        Chrome traces align across lanes.
        """
        obs = self.instrumentation
        with self._lock:
            self._expire_idle()
            open_now = sum(1 for s in self._sessions.values() if s.is_open)
            handled = sum(
                s.requests_handled for s in self._sessions.values()
            )
            shed = sum(s.requests_shed for s in self._sessions.values())
            energy = sum(
                float(s.engine.total_energy_mj)
                for s in self._sessions.values()
            )
        if obs is not None:
            # session counters miss sessionless requests (stats, plan
            # registration); the service counter sees every dispatch
            handled = obs.metrics.counter("service.requests").value
        return {
            "shard": "0",
            "ts": time.time(),
            "uptime_s": self.clock() - self._started_s,
            "sessions_open": open_now,
            "sessions_total": self.sessions_total,
            "requests_handled": handled,
            "requests_shed": shed,
            "cache": self.cache.stats(),
            "wire": self.wire_stats(),
            "blobs": self.blob_counters(),
            "energy_mj": energy,
            "metrics": (
                obs.metrics.to_dict()
                if obs is not None
                else {"counters": {}, "gauges": {}, "histograms": {}}
            ),
            "spans": (
                obs.spans.to_dict()
                if obs is not None
                else {"capacity": 0, "mode": "block", "dropped": 0,
                      "roots": []}
            ),
            "exemplars": self.slow_requests.to_dicts(),
        }

    def _dispatch(self, request: msg.Message) -> msg.Message:
        if isinstance(request, msg.RegisterTopology):
            topology_id = self.register_topology(request.parents)
            return msg.TopologyRegistered(
                topology_id=topology_id,
                num_nodes=self.topology(topology_id).n,
            )
        if isinstance(request, msg.OpenSession):
            session = self.open_session(request)
            return msg.SessionOpened(
                session_id=session.session_id,
                topology_id=session.topology_id,
                planner=request.planner,
            )
        if isinstance(request, msg.GetStats):
            return self._stats_reply()
        # everything below addresses one session
        session = self.session(request.session_id)
        if isinstance(request, msg.CloseSession):
            with session.slot(final=True) as engine:
                session.close()
                return msg.SessionClosed(
                    session_id=session.session_id,
                    epochs=engine.epoch,
                    total_energy_mj=engine.total_energy_mj,
                )
        with session.slot() as engine:
            if isinstance(request, msg.FeedSample):
                engine.feed_sample(np.asarray(request.readings, dtype=float))
                return msg.SampleAccepted(
                    session_id=session.session_id,
                    window_size=len(engine.window),
                )
            if isinstance(request, msg.SubmitQuery):
                result = engine.query(
                    np.asarray(request.readings, dtype=float)
                )
                return msg.QueryReply(
                    session_id=session.session_id,
                    nodes=tuple(int(n) for __, n in result.returned),
                    values=tuple(float(v) for v, __ in result.returned),
                    energy_mj=float(result.energy_mj),
                    accuracy=_json_accuracy(result.accuracy),
                )
            if isinstance(request, msg.SubmitBatch):
                result = engine.query_batch(
                    np.asarray(request.readings, dtype=float)
                )
                return msg.BatchReply(
                    session_id=session.session_id,
                    nodes=result.nodes,
                    values=result.values,
                    energies=result.energies,
                    accuracies=tuple(
                        _json_accuracy(score)
                        for score in result.accuracies
                    ),
                )
            if isinstance(request, msg.StepEpoch):
                outcome = engine.step(
                    np.asarray(request.readings, dtype=float)
                )
                result = outcome.result
                return msg.StepReply(
                    session_id=session.session_id,
                    epoch=outcome.epoch,
                    action=outcome.action,
                    energy_mj=float(outcome.energy_mj),
                    nodes=tuple(
                        int(n) for __, n in result.returned
                    ) if result is not None else (),
                    values=tuple(
                        float(v) for v, __ in result.returned
                    ) if result is not None else (),
                    accuracy=_json_accuracy(result.accuracy)
                    if result is not None else None,
                )
            if isinstance(request, msg.GetPlan):
                return msg.PlanReply(
                    session_id=session.session_id,
                    plan=plan_to_dict(engine.ensure_plan()),
                )
        raise ServiceError(
            f"request kind {request.kind!r} has no handler"
        )  # pragma: no cover - REQUEST_KINDS keeps this unreachable

    def _stats_reply(self) -> msg.StatsReply:
        with self._lock:
            self._expire_idle()
            open_now = sum(1 for s in self._sessions.values() if s.is_open)
            per_state: dict[str, int] = {}
            shed = 0
            handled = 0
            for session in self._sessions.values():
                per_state[session.state] = per_state.get(session.state, 0) + 1
                shed += session.requests_shed
                handled += session.requests_handled
            counters = {
                "cache": self.cache.stats(),
                "sessions_by_state": per_state,
                "requests_handled": handled,
                "requests_shed": shed,
                "wire": self.wire_stats(),
                "blobs": self.blob_counters(),
                "histograms": self._histogram_merge_dumps(),
            }
            return msg.StatsReply(
                sessions_open=open_now,
                sessions_total=self.sessions_total,
                topologies=len(self._topologies),
                counters=counters,
            )


def _json_accuracy(value: float) -> float | None:
    """NaN (truth untracked) maps to None; JSON has no NaN."""
    value = float(value)
    return None if np.isnan(value) else value


# -- asyncio socket front end ----------------------------------------------

PIPELINE_DEPTH = 256
"""Per-connection read-ahead bound: frames decoded but not yet
answered.  Past this the reader stops pulling from the socket, so a
client pipelining faster than the service executes sees TCP
backpressure instead of unbounded server memory."""

COALESCE_REPLIES = 64
"""Replies buffered into one ``write`` before an explicit flush while
a pipelined burst is still in flight (the ``writev``-style batch)."""


class _ReaderFailure:
    """End-of-input marker carrying the wire error to report before
    closing (bad preamble, malformed or oversized frame)."""

    def __init__(self, error: Exception) -> None:
        self.error = error


class _Connection:
    """One client connection: a reader task feeding a processor task.

    The reader's first ``readline`` is the connection preamble: a valid
    hello line is answered with the accept line (which advertises the
    blob spool), anything else with one
    :class:`~repro.errors.ProtocolError` reply frame before the
    connection closes.  From then on the reader pulls length-prefixed
    frames into a bounded queue; the processor answers them
    strictly in order (the sync core on the default executor, so a
    slow LP solve never blocks the event loop) and coalesces reply
    writes while a burst is in flight.  Fairness *between* sessions
    comes from the per-session locks, and overload is shed there too.

    ``begin_drain`` stops the reader; the processor then finishes the
    frames already read, flushes their replies, and closes — the clean
    half of :meth:`ServiceServer.shutdown`.
    """

    def __init__(self, service, reader, writer, *, spool=None) -> None:
        self.service = service
        self.reader = reader
        self.writer = writer
        self.spool = spool
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=PIPELINE_DEPTH)
        self._reader_task: asyncio.Task | None = None
        self.done: asyncio.Task | None = None

    def start(self) -> None:
        self._reader_task = asyncio.create_task(self._read_loop())
        self.done = asyncio.create_task(self._process_loop())

    def begin_drain(self) -> None:
        """Stop reading new frames; queued ones still get replies."""
        if self._reader_task is not None:
            self._reader_task.cancel()

    async def _read_loop(self) -> None:
        failure: Exception | None = None
        try:
            try:
                failure = await self._preamble_and_read()
            except (ConnectionError, OSError):
                pass
        except asyncio.CancelledError:
            pass  # drain: deliver the end-of-input marker below
        finally:
            await self._signal_end(failure)

    async def _preamble_and_read(self) -> Exception | None:
        """Check the hello, answer with the accept line, read frames.

        Returns the wire error to report before closing, or ``None``
        for a clean end of input.
        """
        try:
            first = await self.reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return ProtocolError(
                "frame exceeds the"
                f" {msg.MAX_FRAME_BYTES}-byte protocol limit"
            )
        if not first:
            return None  # EOF before a single byte mattered
        try:
            wire.parse_hello(first)
        except ProtocolError as err:
            return err
        self.service.record_connection()
        blob_dir = str(self.spool.root) if self.spool is not None else None
        self.writer.write(wire.accept_line(blob_dir))
        await self.writer.drain()
        return await self._frame_loop()

    async def _frame_loop(self) -> Exception | None:
        while True:
            try:
                prefix = await self.reader.readexactly(4)
            except asyncio.IncompleteReadError as err:
                if not err.partial:
                    return None  # clean EOF between frames
                return ProtocolError(
                    "truncated frame length prefix"
                    f" ({len(err.partial)} of 4 bytes)"
                )
            (length,) = struct.unpack(">I", prefix)
            if length > msg.MAX_FRAME_BYTES:
                return ProtocolError(
                    f"frame of {length} bytes exceeds the"
                    f" {msg.MAX_FRAME_BYTES}-byte protocol limit"
                )
            if length < 10:  # the "<BBQ" header
                return ProtocolError(
                    f"frame length {length} is below the header size"
                )
            try:
                body = await self.reader.readexactly(length)
            except asyncio.IncompleteReadError as err:
                return ProtocolError(
                    f"truncated frame body ({len(err.partial)} of"
                    f" {length} bytes)"
                )
            await self._queue.put(body)

    async def _signal_end(self, failure: Exception | None) -> None:
        # the queue may be momentarily full; the processor is draining
        # it, so yield until the end marker fits
        marker = (
            _END_OF_INPUT if failure is None else _ReaderFailure(failure)
        )
        while True:
            try:
                self._queue.put_nowait(marker)
                return
            except asyncio.QueueFull:
                await asyncio.sleep(0)

    def _handle_batch(self, frames: list[bytes]) -> list[bytes]:
        """Answer a chunk of frames in one executor hop (in order)."""
        service = self.service
        out = []
        for frame in frames:
            reply = service.handle_frame(frame, spool=self.spool)
            service.record_wire(len(frame) + 4, len(reply))
            out.append(reply)
        return out

    async def _process_loop(self) -> None:
        loop = asyncio.get_running_loop()
        out: list[bytes] = []
        stop = False
        failure: _ReaderFailure | None = None
        try:
            while not stop:
                item = await self._queue.get()
                # chunk whatever the reader has already queued: a
                # pipelined burst pays one executor dispatch per chunk
                # instead of one per frame
                batch: list[bytes] = []
                while True:
                    if item is _END_OF_INPUT:
                        stop = True
                        break
                    if isinstance(item, _ReaderFailure):
                        stop = True
                        failure = item
                        break
                    batch.append(item)
                    if len(batch) >= COALESCE_REPLIES:
                        break
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                if batch:
                    out.extend(
                        await loop.run_in_executor(
                            None, self._handle_batch, batch
                        )
                    )
                if stop and failure is not None:
                    out.append(
                        wire.encode_frame(msg.error_to_reply(failure.error))
                    )
                if out and (
                    stop
                    or self._queue.empty()
                    or len(out) >= COALESCE_REPLIES
                ):
                    self.writer.write(b"".join(out))
                    out.clear()
                    await self.writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            out.clear()
        finally:
            if self._reader_task is not None:
                self._reader_task.cancel()
            try:
                if out:
                    self.writer.write(b"".join(out))
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


_END_OF_INPUT = object()


class ServiceServer:
    """The listening socket front end, with a graceful shutdown path.

    Duck-compatible with the ``asyncio.Server`` it wraps for the uses
    the code base grew around (``sockets``, ``serve_forever``, ``async
    with``); adds connection tracking and :meth:`shutdown`.
    """

    def __init__(self, service: TopKService) -> None:
        self.service = service
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._spool = None
        blob_dir = getattr(service.config, "blob_dir", None)
        if blob_dir is not None:
            from repro.service.artifacts import BlobSpool

            self._spool = BlobSpool(
                blob_dir, instrumentation=service.instrumentation
            )

    async def start(self, host: str, port: int) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._on_connection, host, port,
            limit=msg.MAX_FRAME_BYTES + 1024,
        )
        return self

    async def _on_connection(self, reader, writer) -> None:
        connection = _Connection(
            self.service, reader, writer, spool=self._spool
        )
        self._connections.add(connection)
        connection.start()
        try:
            await connection.done
        finally:
            self._connections.discard(connection)

    @property
    def sockets(self):
        return self._server.sockets

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    def close(self) -> None:
        self._server.close()

    async def wait_closed(self) -> None:
        await self._server.wait_closed()

    async def shutdown(self, grace_seconds: float = 5.0) -> None:
        """Drain and stop: the clean SIGTERM path.

        Stops accepting connections, flips the service into draining
        mode (new work refused with
        :class:`~repro.errors.ServiceUnavailableError`), stops every
        connection's reader, and gives in-flight requests
        ``grace_seconds`` to finish and flush their final replies
        before force-closing whatever is left.
        """
        self.service.begin_drain()
        self._server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.begin_drain()
        pending = [c.done for c in connections if c.done is not None]
        if pending:
            __, unfinished = await asyncio.wait(
                pending, timeout=grace_seconds
            )
            for task in unfinished:  # grace expired: force-close
                task.cancel()
            if unfinished:
                await asyncio.wait(unfinished, timeout=1.0)
        await self._server.wait_closed()

    async def __aenter__(self) -> "ServiceServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
        await self.wait_closed()


async def serve(
    service: TopKService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Start the binary-wire socket server; returns a
    :class:`ServiceServer` (its bound port is
    ``server.sockets[0].getsockname()[1]``)."""
    return await ServiceServer(service).start(host, port)


class ServiceThread:
    """A live socket service on a background thread (context manager).

    ::

        with ServiceThread(TopKService()) as live:
            client = SocketClient(live.host, live.port)

    The event loop, server, and executor all live on the thread;
    ``__exit__`` stops the loop and joins it.
    """

    def __init__(
        self,
        service: TopKService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        grace_seconds: float = 5.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.grace_seconds = grace_seconds
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._server: ServiceServer | None = None
        self._thread: threading.Thread | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._server = await serve(self.service, self.host, self.port)
        except OSError as err:
            self._startup_error = err
            self._ready.set()
            return
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._stop.wait()
        await self._server.shutdown(self.grace_seconds)

    def shutdown(self, grace_seconds: float | None = None) -> None:
        """Gracefully stop the live server from any thread (idempotent)."""
        if grace_seconds is not None:
            self.grace_seconds = grace_seconds
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already finished (second call)
                pass

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise ServiceError(
                f"service failed to bind {self.host}:{self.port}:"
                f" {self._startup_error}"
            )
        if not self._ready.is_set():  # pragma: no cover - defensive
            raise ServiceError("service thread failed to start in time")
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
