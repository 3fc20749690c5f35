"""The multi-tenant service core plus its socket front end.

:class:`TopKService` is deliberately synchronous and
transport-agnostic: :meth:`TopKService.handle` maps one typed request
to one typed reply (raising :mod:`repro.errors` types), and
:meth:`TopKService.handle_frame` is the same thing over binary wire
frames with failures serialized as
:class:`~repro.service.messages.ErrorReply` and correlation ids echoed
verbatim.  The socket front end (:func:`serve`,
:class:`ServiceServer`, :class:`ServiceThread`) moves frames between
sockets and that core — per-session serialization and backpressure
live in :class:`.session.Session`, so the core behaves identically
under the in-process client and the socket.

The front end is **one blocking thread per connection**: the thread
that reads a frame answers it.  Each thread runs the hello/accept
preamble, then reads with ``recv`` into a byte buffer, answers every
complete frame in it strictly in order, and joins those replies into one
``sendall`` — so a pipelined burst costs a few syscalls rather than
one round trip per request, and a slow request (an LP solve) blocks
only its own connection.  :meth:`ServiceServer.shutdown` is the
graceful path: close the listener, drain the service, shut each
connection's read side so its thread answers the frames it already
holds, flushes and closes, then force-close whatever outlives the
grace window.

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

import socket
import threading
import time
from collections import OrderedDict
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
from repro.obs.distributed import SlowRequestLog
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
        # the open sessions, least recently used first: every stamp of a
        # session's last_used moves it to the end (see _mark_used), so
        # expiry pops idle sessions off the front and stops at the first
        # live one, and admission reads the open count as len()
        self._open: OrderedDict[str, Session] = OrderedDict()
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
        """Expire the open sessions idle past the TTL (caller holds the
        lock); costs one check plus one per expired session."""
        now = self.clock()
        while self._open:
            session = next(iter(self._open.values()))
            if not session.expire_if_idle(now, self.config.session_ttl_s):
                return
            del self._open[session.session_id]
            if self.instrumentation is not None:
                self.instrumentation.event(
                    "session_expired",
                    session_id=session.session_id,
                    idle_s=session.idle_seconds(now),
                )

    def _mark_used(self, session: Session) -> None:
        """Stamp ``session.last_used`` and move it to the back of the
        open order, atomically, so the order stays by last use."""
        with self._lock:
            session.last_used = self.clock()
            if session.session_id in self._open:
                self._open.move_to_end(session.session_id)

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
            open_now = len(self._open)
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
                on_use=self._mark_used,
            )
            self._sessions[session_id] = session
            self._open[session_id] = session
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
            return len(self._open)

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
            obs.record_request(request.kind)
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
                obs.record_request_seconds(span.duration_s)
                self.slow_requests.offer(span)

    def handle_frame(self, body: bytes) -> bytes:
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
                body, vectors="array"
            )
            reply = self.handle(request, trace=trace)
        except Exception as err:  # typed errors included
            reply = msg.error_to_reply(err)
        try:
            return wire.encode_frame(reply, cid=cid)
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
        if self.instrumentation is not None:
            self.instrumentation.record_wire(request_bytes, reply_bytes)

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

    def _histogram_merge_dumps(self) -> dict:
        """Dumps of every ``service.*`` histogram (request latency, wire
        bytes), which shard aggregation merges into fleet quantiles."""
        obs = self.instrumentation
        if obs is None:
            return {}
        return {
            name: hist.to_dict()
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
            open_now = len(self._open)
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
                with self._lock:
                    self._open.pop(session.session_id, None)
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
                    accuracy=_optional_accuracy(result.accuracy),
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
                        _optional_accuracy(score)
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
                    accuracy=_optional_accuracy(result.accuracy)
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
            open_now = len(self._open)
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
                "histograms": self._histogram_merge_dumps(),
            }
            return msg.StatsReply(
                sessions_open=open_now,
                sessions_total=self.sessions_total,
                topologies=len(self._topologies),
                counters=counters,
            )


def _optional_accuracy(value: float) -> float | None:
    """NaN (truth untracked) maps to None; the wire carries no NaN."""
    value = float(value)
    return None if np.isnan(value) else value


# -- socket front end: one thread per connection ----------------------------

MAX_CONNECTIONS = 256
"""Live connections one server holds.  An accept past this is closed at
once, so the client sees the connection drop instead of a hang."""

HELLO_TIMEOUT_S = 10.0
"""Seconds a new connection has to complete its hello line.  A peer
that stays silent past it is dropped, so it cannot hold one of the
:data:`MAX_CONNECTIONS` slots forever."""

RECV_BYTES = 1 << 16
"""Bytes asked of one ``recv``.  Every complete frame a read brings in
is answered before the joined replies go out in one ``sendall``, so a
pipelined burst costs a few syscalls, not one round trip per frame."""


class ServiceServer:
    """The listening socket, its accept thread, and one blocking thread
    per connection.

    A connection's thread does all of that connection's work: the
    hello/accept preamble, ``recv`` into a byte buffer, answering every
    complete frame in the buffer in order through
    :meth:`TopKService.handle_frame`, and one ``sendall`` of the joined
    replies.  A slow request (an LP solve, say) blocks only its own
    connection; per-session serialization and overload shedding live
    in :class:`.session.Session`.  At most :data:`MAX_CONNECTIONS` are
    live at once, and a peer that sends no hello line within
    :data:`HELLO_TIMEOUT_S` is dropped to free its slot.
    """

    def __init__(self, service: TopKService) -> None:
        self.service = service
        self._listener: socket.socket | None = None
        self.address: tuple | None = None
        """The bound ``(host, port)``, set by :meth:`start`."""
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._accepted = 0
        self._draining = False

    def start(self, host: str, port: int) -> "ServiceServer":
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-accept-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                conn, __ = listener.accept()
            except OSError:
                if self._draining:
                    return  # the listener was shut down
                time.sleep(0.01)  # transient (EMFILE, say): retry
                continue
            with self._lock:
                refused = (
                    self._draining
                    or len(self._connections) >= MAX_CONNECTIONS
                )
                if not refused:
                    self._accepted += 1
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn,),
                        name=f"repro-conn-{self._accepted}",
                        daemon=True,
                    )
                    self._connections[conn] = thread
            if refused:
                conn.close()
            else:
                thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            # replies leave as whole batches, so Nagle only adds delay
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pending = self._preamble(conn)
            if pending is not None:
                self._frame_loop(conn, pending)
        except OSError:  # peer gone or silent, or force-closed by shutdown
            pass
        finally:
            # deregister before closing: shutdown() only touches sockets
            # still registered, so never a closed (or reused) descriptor
            with self._lock:
                self._connections.pop(conn, None)
            conn.close()

    def _preamble(self, conn: socket.socket) -> bytes | None:
        """Check the hello line and answer it with the accept line.

        Returns the bytes read past the hello, or ``None`` when the
        connection is done: EOF before a hello, or a bad or over-long
        one (answered with one ``ProtocolError`` reply frame).  A hello
        not complete within :data:`HELLO_TIMEOUT_S` raises
        ``TimeoutError``, however slowly its bytes trickle in.
        """
        deadline = time.monotonic() + HELLO_TIMEOUT_S
        data = b""
        while b"\n" not in data and len(data) <= msg.MAX_FRAME_BYTES:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no hello line in time")
            conn.settimeout(remaining)
            chunk = conn.recv(RECV_BYTES)
            if not chunk:
                break
            data += chunk
        if not data:
            return None  # EOF before a single byte mattered
        line, __, rest = data.partition(b"\n")
        try:
            if len(line) > msg.MAX_FRAME_BYTES:
                raise ProtocolError(
                    "frame exceeds the"
                    f" {msg.MAX_FRAME_BYTES}-byte protocol limit"
                )
            wire.parse_hello(line)
        except ProtocolError as err:
            conn.sendall(wire.encode_frame(msg.error_to_reply(err)))
            conn.shutdown(socket.SHUT_WR)
            return None
        conn.settimeout(None)  # past the hello, a connection may idle
        self.service.record_connection()
        conn.sendall(wire.accept_line())
        return rest

    def _frame_loop(self, conn: socket.socket, data: bytes) -> None:
        """Answer frames, starting with any that came in with the hello,
        until EOF (the peer's, or the drain's ``SHUT_RD``) or a framing
        error, which is answered and then ends the connection."""
        service = self.service
        eof = False
        while True:
            replies = []
            start = 0
            try:
                # a frame cut short by the drain is dropped, not an error
                while (
                    end := wire.frame_end(
                        data, start, eof=eof and not self._draining
                    )
                ) is not None:
                    reply = service.handle_frame(data[start + 4:end])
                    service.record_wire(end - start, len(reply))
                    replies.append(reply)
                    start = end
            except ProtocolError as err:
                replies.append(wire.encode_frame(msg.error_to_reply(err)))
                eof = True
            if replies:
                conn.sendall(b"".join(replies))
            if eof:
                return
            chunk = conn.recv(RECV_BYTES)
            eof = not chunk
            data = data[start:] + chunk if start < len(data) else chunk

    def shutdown(self, grace_seconds: float = 5.0) -> None:
        """Drain and stop: the clean SIGTERM path (idempotent).

        Closes the listener, flips the service into draining mode (new
        work refused with :class:`~repro.errors.ServiceUnavailableError`),
        shuts the read side of every connection so its thread answers
        the frames it already holds, flushes and closes, and joins those
        threads within ``grace_seconds`` before force-closing whatever
        is left.
        """
        with self._lock:
            listener, self._listener = self._listener, None
            self._draining = True
        if listener is None:
            return
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        except OSError:
            pass
        listener.close()
        self._accept_thread.join(5.0)
        self.service.begin_drain()
        threads = self._shutdown_connections(socket.SHUT_RD)
        deadline = time.monotonic() + grace_seconds
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        for thread in self._shutdown_connections(socket.SHUT_RDWR):
            thread.join(1.0)  # a thread stuck in a request stays a daemon

    def _shutdown_connections(self, how: int) -> list[threading.Thread]:
        # under the lock, so no socket here has been closed by its thread
        with self._lock:
            for conn in self._connections:
                try:
                    conn.shutdown(how)
                except OSError:  # the peer already went away
                    pass
            return list(self._connections.values())


def serve(
    service: TopKService, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Start the binary-wire socket server; returns a
    :class:`ServiceServer` (its bound port is ``server.address[1]``)."""
    return ServiceServer(service).start(host, port)


class ServiceThread:
    """A live socket service for the length of a ``with`` block.

    ::

        with ServiceThread(TopKService()) as live:
            client = SocketClient(live.host, live.port)

    The server's accept and connection threads serve in the background;
    ``__exit__`` drains it (:meth:`ServiceServer.shutdown`) and leaves
    none of them running.
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
        self._server: ServiceServer | None = None

    def shutdown(self, grace_seconds: float | None = None) -> None:
        """Gracefully stop the live server (idempotent)."""
        if grace_seconds is not None:
            self.grace_seconds = grace_seconds
        if self._server is not None:
            self._server.shutdown(self.grace_seconds)

    def __enter__(self) -> "ServiceThread":
        try:
            self._server = serve(self.service, self.host, self.port)
        except OSError as err:
            raise ServiceError(
                f"service failed to bind {self.host}:{self.port}: {err}"
            ) from err
        self.port = self._server.address[1]
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
