"""Service clients: one surface, three transports.

:class:`InProcessClient` calls :meth:`TopKService.handle` directly
(zero serialization — the load benchmark's path), while
:class:`SocketClient` speaks the binary wire protocol
(:mod:`repro.service.wire`) over TCP and
:class:`~repro.service.shard.ShardedClient` routes over many socket
workers.  All raise the same typed :mod:`repro.errors` exceptions and
hand out the same :class:`SessionHandle`, so code written against one
runs against the others; the protocol round-trip tests pin that
equivalence.

Two request disciplines coexist on every client:

- **lockstep** — :meth:`~_BaseClient.request` writes one frame and
  awaits its reply (errors re-raised typed);
- **pipelined** — :meth:`~_BaseClient.submit_nowait` queues a frame
  with a correlation id and returns immediately;
  :meth:`~_BaseClient.drain` (or the :meth:`~_BaseClient.stream`
  iterator) flushes the batch and yields replies in submit order,
  checking each echoed cid.  Failures arrive as
  :class:`~repro.service.messages.ErrorReply` values *in the stream*
  rather than as exceptions, so one bad frame cannot tear down the
  rest of the batch.

:class:`SocketClient` additionally owns the liveness story: connects
and reads are bounded by timeouts, a dead or hung worker surfaces as a
typed :class:`~repro.errors.ServiceUnavailableError`, and idempotent
requests (:data:`IDEMPOTENT_KINDS`) are retried once over a fresh
connection before that error escapes.

:func:`connect` is the front door (also re-exported as
:func:`repro.api.connect`): give it nothing for a private in-process
service, a :class:`~repro.service.server.TopKService` to share one,
``host``/``port`` for a remote one, or ``shards`` for a sharded
deployment.
"""

from __future__ import annotations

import socket
from collections import deque

import numpy as np

from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs.distributed import adopt_trace
from repro.obs.spans import maybe_span
from repro.service import messages as msg
from repro.service import wire

IDEMPOTENT_KINDS: frozenset[str] = frozenset(
    ("register_topology", "get_stats", "get_plan")
)
"""Request kinds safe to retry after a transport failure.

Registration is content-keyed (same parents, same id), and the two
reads have no side effects.  Feeds/queries/steps mutate session state,
so a client cannot know whether a timed-out one executed — those are
never retried automatically.
"""


class SessionHandle:
    """One tenant session, whichever transport carries it.

    Usable as a context manager (``with client.open_session(...) as s``)
    so the session is closed — freeing its admission slot — on exit.

    The ``*_nowait`` variants pipeline the frame on the owning client
    (replies come back through ``client.drain()`` / ``client.stream()``
    in submit order), which is the streaming feed-while-querying mode.
    """

    def __init__(self, client, session_id: str) -> None:
        self.client = client
        self.session_id = session_id

    def feed(self, readings) -> msg.SampleAccepted:
        """Add one full-network sample to the session window."""
        return self.client.request(self._feed_message(readings))

    def feed_nowait(self, readings) -> int:
        """Pipeline one feed frame; returns its correlation id."""
        return self.client.submit_nowait(self._feed_message(readings))

    def query(self, readings) -> msg.QueryReply:
        """Execute the installed plan on this epoch's readings."""
        return self.client.request(self._query_message(readings))

    def query_nowait(self, readings) -> int:
        """Pipeline one query frame; returns its correlation id."""
        return self.client.submit_nowait(self._query_message(readings))

    def step(self, readings) -> msg.StepReply:
        """One explore/exploit epoch (engine decides sample vs query)."""
        return self.client.request(self._step_message(readings))

    def step_nowait(self, readings) -> int:
        """Pipeline one epoch-step frame; returns its correlation id."""
        return self.client.submit_nowait(self._step_message(readings))

    def query_batch(self, readings_matrix) -> msg.BatchReply:
        """Execute the installed plan on a whole ``(B, n)`` readings
        matrix in one frame; row ``i`` of the reply is bitwise what
        :meth:`query` on row ``i`` would have returned."""
        return self.client.request(self._batch_message(readings_matrix))

    def query_batch_nowait(self, readings_matrix) -> int:
        """Pipeline one multi-query frame; returns its correlation id."""
        return self.client.submit_nowait(
            self._batch_message(readings_matrix)
        )

    def plan(self) -> dict:
        """The installed plan as a serialized payload (see
        :func:`repro.plans.serialize.plan_from_dict`)."""
        return self.client.request(
            msg.GetPlan(session_id=self.session_id)
        ).plan

    def close(self) -> msg.SessionClosed:
        return self.client.request(
            msg.CloseSession(session_id=self.session_id)
        )

    @staticmethod
    def _vector(readings):
        # numpy payloads pass through untouched: the wire codec packs
        # them zero-copy, so the per-request tuple(float(...)) tax is
        # only paid for plain sequences
        if isinstance(readings, np.ndarray):
            return readings
        return tuple(float(v) for v in readings)

    def _feed_message(self, readings) -> msg.FeedSample:
        return msg.FeedSample(
            session_id=self.session_id, readings=self._vector(readings)
        )

    def _query_message(self, readings) -> msg.SubmitQuery:
        return msg.SubmitQuery(
            session_id=self.session_id, readings=self._vector(readings)
        )

    def _step_message(self, readings) -> msg.StepEpoch:
        return msg.StepEpoch(
            session_id=self.session_id, readings=self._vector(readings)
        )

    def _batch_message(self, readings_matrix) -> msg.SubmitBatch:
        if isinstance(readings_matrix, np.ndarray):
            readings = readings_matrix
        else:
            readings = tuple(
                tuple(float(v) for v in row) for row in readings_matrix
            )
        return msg.SubmitBatch(
            session_id=self.session_id, readings=readings
        )

    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.close()
        except ServiceError:  # already closed/expired/unreachable
            pass


class _BaseClient:
    """Shared request helpers over abstract ``request``/``submit_nowait``."""

    def request(self, request: msg.Message) -> msg.Message:
        raise NotImplementedError

    def submit_nowait(self, request: msg.Message) -> int:
        raise NotImplementedError

    def stream(self):
        """Iterator of outstanding pipelined replies, in submit order."""
        raise NotImplementedError

    def drain(self) -> list[msg.Message]:
        """Flush pipelined frames and collect every outstanding reply.

        Replies come back in submit order; failures are returned as
        :class:`~repro.service.messages.ErrorReply` values (use
        :func:`~repro.service.messages.error_from_reply` to rehydrate)
        so one shed request does not abort the batch.
        """
        return list(self.stream())

    def register_topology(self, topology_or_parents) -> str:
        """Install a topology (object or parents vector); returns its id."""
        token = getattr(topology_or_parents, "cache_token", None)
        parents = token() if callable(token) else topology_or_parents
        reply = self.request(
            msg.RegisterTopology(parents=tuple(int(p) for p in parents))
        )
        return reply.topology_id

    def open_session(
        self,
        topology_id: str,
        k: int,
        *,
        planner: str = "lp-lf",
        budget_mj: float = 500.0,
        window_capacity: int = 25,
        replan_every: int = 10,
        track_truth: bool = True,
    ) -> SessionHandle:
        reply = self.request(
            msg.OpenSession(
                topology_id=topology_id,
                k=k,
                planner=planner,
                budget_mj=budget_mj,
                window_capacity=window_capacity,
                replan_every=replan_every,
                track_truth=track_truth,
            )
        )
        return SessionHandle(self, reply.session_id)

    def stats(self) -> msg.StatsReply:
        return self.request(msg.GetStats())


class InProcessClient(_BaseClient):
    """Direct calls into a service living in this process.

    The pipelined surface executes each frame eagerly (there is no
    wire to batch over) but preserves the socket client's observable
    semantics exactly: ``submit_nowait`` never raises on application
    errors — they come back as ``ErrorReply`` values from ``drain`` —
    which is what the socket-vs-in-process streaming parity test pins.
    """

    def __init__(self, service, *, instrumentation=None) -> None:
        self.service = service
        self.instrumentation = instrumentation
        self._pending: deque[tuple[int, msg.Message]] = deque()
        self._next_cid = 0

    def request(self, request: msg.Message) -> msg.Message:
        obs = self.instrumentation
        with maybe_span(
            obs, "client.request", kind=request.kind, transport="inprocess"
        ) as span:
            trace = adopt_trace(obs, span)
            reply = self.service.handle(request, trace=trace)
        if isinstance(reply, msg.ErrorReply):  # pragma: no cover - handle
            raise msg.error_from_reply(reply)  # raises typed errors itself
        return reply

    def submit_nowait(self, request: msg.Message) -> int:
        if request.kind not in msg.REQUEST_KINDS:
            raise ServiceError(
                f"{request.kind!r} is a reply kind, not a request"
            )
        cid = self._next_cid
        self._next_cid += 1
        obs = self.instrumentation
        try:
            with maybe_span(
                obs,
                "client.submit",
                kind=request.kind,
                transport="inprocess",
            ) as span:
                trace = adopt_trace(obs, span)
                reply = self.service.handle(request, trace=trace)
        except Exception as err:  # typed errors included — parity with wire
            reply = msg.error_to_reply(err)
        self._pending.append((cid, reply))
        return cid

    def stream(self):
        while self._pending:
            __, reply = self._pending.popleft()
            yield reply

    @property
    def pending(self) -> int:
        """Outstanding pipelined replies not yet drained."""
        return len(self._pending)

    def close(self) -> None:
        """Nothing to release (sessions close via their handles)."""


class SocketClient(_BaseClient):
    """The binary wire protocol over one TCP connection.

    Requests on one connection are answered in order; failures come
    back as :class:`~repro.service.messages.ErrorReply` frames and are
    re-raised (lockstep) or streamed (pipelined) as typed
    :mod:`repro.errors` values.

    Parameters
    ----------
    timeout_s:
        Read timeout per reply; a worker dying mid-request surfaces as
        :class:`~repro.errors.ServiceUnavailableError` after this long
        instead of hanging the client forever.
    connect_timeout_s:
        Bound on establishing (and re-establishing) the TCP
        connection; defaults to ``timeout_s``.
    instrumentation:
        Optional :class:`~repro.obs.instrument.Instrumentation`: each
        lockstep request then runs under a ``client.request`` span
        whose trace context rides the frame header, stitching client
        and server spans into one distributed trace (see
        :mod:`repro.obs.distributed`).

    Each connection (and each reconnect) opens with the hello/accept
    preamble before its first frame; a peer that answers the hello with
    anything but an accept line raises
    :class:`~repro.errors.ProtocolError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        *,
        connect_timeout_s: float | None = None,
        instrumentation=None,
    ) -> None:
        self.host = host
        self.port = port
        self.instrumentation = instrumentation
        self.timeout_s = timeout_s
        self.connect_timeout_s = (
            timeout_s if connect_timeout_s is None else connect_timeout_s
        )
        self._accepted = False
        self._sock = None
        self._file = None
        self._pending: deque[int] = deque()
        self._next_cid = 0
        self._connect()

    # -- connection management -----------------------------------------
    def _connect(self) -> None:
        self._teardown()  # a reconnect never leaks the previous socket
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as err:
            raise ServiceUnavailableError(
                f"cannot connect to service at {self.host}:{self.port}:"
                f" {err}"
            ) from err
        self._sock.settimeout(self.timeout_s)
        self._file = self._sock.makefile("rwb")
        # the preamble is deferred to the first request so constructing
        # a client never blocks on reading from the server
        self._accepted = False

    def _preamble(self) -> None:
        """Send the hello and check the server's accept line."""
        try:
            self._file.write(wire.hello_line())
            self._file.flush()
            answer = self._file.readline()
        except TimeoutError as err:
            raise self._unavailable(
                f"did not reply within {self.timeout_s}s", err
            ) from err
        except OSError as err:
            raise self._unavailable("dropped the connection", err) from err
        if not answer:
            raise self._unavailable("closed the connection")
        try:
            wire.parse_accept(answer)
        except ProtocolError as err:
            self._teardown()
            raise ProtocolError(
                f"service at {self.host}:{self.port} did not accept the"
                f" wire preamble: {err}"
            ) from err
        self._accepted = True

    def _teardown(self) -> None:
        """Drop the broken connection; outstanding pipeline is lost."""
        self._pending.clear()
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - already broken
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already broken
                pass
            self._sock = None

    def _unavailable(self, what: str, err=None) -> ServiceUnavailableError:
        self._teardown()
        detail = f": {err}" if err is not None else ""
        return ServiceUnavailableError(
            f"service at {self.host}:{self.port} {what}{detail}"
        )

    # -- framing --------------------------------------------------------
    def _write_request(self, request: msg.Message, cid=None, trace=None) -> None:
        if self._file is None:
            self._connect()
        if not self._accepted:
            self._preamble()
        try:
            self._file.write(wire.encode_frame(request, cid=cid, trace=trace))
        except OSError as err:
            raise self._unavailable("dropped the connection", err) from err

    def _read_reply(self) -> tuple[msg.Message, int | None]:
        try:
            body = wire.read_frame_blocking(self._file)
            if not body:
                raise self._unavailable("closed the connection")
            return wire.decode_frame(body)
        except ProtocolError:
            # framing is unrecoverable; surface the typed error but
            # drop the connection first
            self._teardown()
            raise
        except (TimeoutError, OSError) as err:
            raise self._unavailable(
                f"did not reply within {self.timeout_s}s", err
            ) from err

    # -- lockstep -------------------------------------------------------
    def request(self, request: msg.Message) -> msg.Message:
        if request.kind not in msg.REQUEST_KINDS:
            raise ServiceError(
                f"{request.kind!r} is a reply kind, not a request"
            )
        if self._pending:
            raise ServiceError(
                f"{len(self._pending)} pipelined replies outstanding;"
                " drain() before issuing a lockstep request"
            )
        obs = self.instrumentation
        with maybe_span(
            obs, "client.request", kind=request.kind, transport="socket"
        ) as span:
            trace = adopt_trace(obs, span)
            try:
                reply = self._roundtrip(request, trace=trace)
            except ServiceUnavailableError:
                if request.kind not in IDEMPOTENT_KINDS:
                    raise
                # reconnect-once retry: the request has no side effects,
                # the fresh connection repeats the preamble, and the
                # retry carries the same trace context so both
                # attempts stitch into one distributed trace
                span.annotate(retried=True)
                self._connect()
                reply = self._roundtrip(request, trace=trace)
        if isinstance(reply, msg.ErrorReply):
            raise msg.error_from_reply(reply)
        return reply

    def _roundtrip(self, request: msg.Message, trace=None) -> msg.Message:
        self._write_request(request, trace=trace)
        try:
            self._file.flush()
        except OSError as err:
            raise self._unavailable("dropped the connection", err) from err
        return self._read_reply()[0]

    # -- pipelining -----------------------------------------------------
    def submit_nowait(self, request: msg.Message) -> int:
        """Buffer one frame (with a fresh correlation id); no reply wait.

        Frames accumulate in the client's send buffer until ``drain``/
        ``stream`` flushes them, so a burst crosses the wire as few
        large writes instead of one syscall per request.
        """
        if request.kind not in msg.REQUEST_KINDS:
            raise ServiceError(
                f"{request.kind!r} is a reply kind, not a request"
            )
        cid = self._next_cid
        self._next_cid += 1
        obs = self.instrumentation
        with maybe_span(
            obs,
            "client.submit",
            kind=request.kind,
            transport="socket",
            cid=cid,
        ) as span:
            trace = adopt_trace(obs, span)
            self._write_request(request, cid=cid, trace=trace)
        self._pending.append(cid)
        return cid

    def stream(self):
        """Flush buffered frames; iterate replies in submit order.

        Each reply's echoed correlation id is checked against the
        submit order — a mismatch means the connection lost framing and
        raises :class:`~repro.errors.ServiceError`.
        """
        if self._pending:
            try:
                self._file.flush()
            except OSError as err:
                raise self._unavailable(
                    "dropped the connection", err
                ) from err
        return self._stream_replies()

    def _stream_replies(self):
        while self._pending:
            expected = self._pending[0]
            reply, cid = self._read_reply()
            if cid != expected:
                self._teardown()
                raise ServiceError(
                    f"pipelined reply correlation mismatch: expected cid"
                    f" {expected}, got {cid!r}"
                )
            self._pending.popleft()
            yield reply

    @property
    def pending(self) -> int:
        """Outstanding pipelined frames not yet drained."""
        return len(self._pending)

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    service=None,
    *,
    host: str | None = None,
    port: int | None = None,
    shards=None,
    instrumentation=None,
):
    """The service front door.

    - ``connect()`` — a private in-process service with defaults;
    - ``connect(service)`` — share an existing
      :class:`~repro.service.server.TopKService`;
    - ``connect(host=..., port=...)`` — a remote socket service;
    - ``connect(shards=[(host, port), ...])`` — a sharded deployment
      (sessions routed by content hash; see
      :class:`~repro.service.shard.ShardedClient`).
    """
    if shards is not None:
        if service is not None or host is not None or port is not None:
            raise ServiceError(
                "pass shards alone, not with a service or host/port"
            )
        from repro.service.shard import ShardedClient

        return ShardedClient(shards, instrumentation=instrumentation)
    if host is not None or port is not None:
        if service is not None:
            raise ServiceError(
                "pass either a service instance or host/port, not both"
            )
        if host is None or port is None:
            raise ServiceError("socket connection needs both host and port")
        return SocketClient(host, port, instrumentation=instrumentation)
    if service is None:
        from repro.service.server import TopKService

        service = TopKService()
    return InProcessClient(service, instrumentation=instrumentation)
