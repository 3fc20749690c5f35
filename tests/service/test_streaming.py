"""Pipelined protocol: correlation ids, framing limits, shutdown."""

import socket

import numpy as np
import pytest

from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceUnavailableError,
    SessionError,
)
from repro.service import messages as msg
from repro.service import wire
from repro.service.client import InProcessClient, SocketClient
from repro.service.server import ServiceConfig, ServiceThread, TopKService

PARENTS = (-1, 0, 0, 1, 1)


def _rows(n=4, nodes=len(PARENTS), seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(25, 3, nodes) for __ in range(n)]


# -- correlation ids ---------------------------------------------------------


def test_handle_frame_echoes_cid_on_success_and_error():
    service = TopKService()
    ok = service.handle_frame(wire.encode_frame(msg.GetStats(), cid=3)[4:])
    reply, cid = wire.decode_frame(ok[4:])
    assert isinstance(reply, msg.StatsReply)
    assert cid == 3
    bad = service.handle_frame(
        wire.encode_frame(msg.GetPlan(session_id="sX"), cid=4)[4:]
    )
    reply, cid = wire.decode_frame(bad[4:])
    assert isinstance(reply, msg.ErrorReply)
    assert cid == 4


def test_oversized_frame_rejected_at_decode():
    body = wire.encode_frame(msg.GetStats())[4:]
    oversized = body + b"\x00" * (msg.MAX_FRAME_BYTES + 1 - len(body))
    with pytest.raises(ProtocolError, match="protocol limit"):
        wire.decode_frame(oversized)


# -- pipelined flow, both transports ---------------------------------------


def _pipelined_exercise(client):
    """Interleave feeds and queries on two sessions; drain once."""
    topology_id = client.register_topology(PARENTS)
    first = client.open_session(topology_id, 2, budget_mj=50.0)
    second = client.open_session(topology_id, 2, budget_mj=50.0)
    rows = _rows()
    for row in rows[:3]:
        first.feed(row)
        second.feed(row)
    # interleaved pipelined burst across both sessions, one bad frame
    first.feed_nowait(rows[3])
    second.query_nowait(rows[0])
    first.query_nowait(rows[1])
    client.submit_nowait(msg.GetPlan(session_id="sX"))  # -> ErrorReply
    second.feed_nowait(rows[3])
    assert client.pending == 5
    replies = client.drain()
    assert client.pending == 0
    first.close()
    second.close()
    return first, second, replies


def _check_pipelined_replies(first, second, replies):
    assert [type(r).__name__ for r in replies] == [
        "SampleAccepted", "QueryReply", "QueryReply",
        "ErrorReply", "SampleAccepted",
    ]
    # replies land in submit order, tagged with their own session
    assert replies[0].session_id == first.session_id
    assert replies[1].session_id == second.session_id
    assert replies[2].session_id == first.session_id
    assert replies[4].session_id == second.session_id
    with pytest.raises(SessionError, match="unknown session"):
        raise msg.error_from_reply(replies[3])


def test_in_process_pipelining():
    client = InProcessClient(TopKService())
    _check_pipelined_replies(*_pipelined_exercise(client))


def test_socket_pipelining_interleaved_cids():
    with ServiceThread(TopKService()) as live:
        with SocketClient(live.host, live.port) as client:
            _check_pipelined_replies(*_pipelined_exercise(client))


def test_socket_and_in_process_streaming_parity():
    """Same burst, same replies, error placement included."""
    in_process = _pipelined_exercise(InProcessClient(TopKService()))
    with ServiceThread(TopKService()) as live:
        with SocketClient(live.host, live.port) as client:
            over_socket = _pipelined_exercise(client)
    for mine, theirs in zip(in_process[2], over_socket[2]):
        assert type(mine) is type(theirs)
        if isinstance(mine, msg.QueryReply):
            assert mine.nodes == theirs.nodes
            assert mine.values == pytest.approx(theirs.values)
        if isinstance(mine, msg.ErrorReply):
            assert mine.error == theirs.error


def test_lockstep_refused_with_pending_pipeline():
    with ServiceThread(TopKService()) as live:
        with SocketClient(live.host, live.port) as client:
            client.submit_nowait(msg.GetStats())
            with pytest.raises(ServiceError, match="drain"):
                client.request(msg.GetStats())
            replies = client.drain()
            assert isinstance(replies[0], msg.StatsReply)


def test_stream_yields_lazily():
    with ServiceThread(TopKService()) as live:
        with SocketClient(live.host, live.port) as client:
            client.submit_nowait(msg.GetStats())
            client.submit_nowait(msg.GetStats())
            stream = client.stream()
            assert isinstance(next(stream), msg.StatsReply)
            assert client.pending == 1
            assert isinstance(next(stream), msg.StatsReply)
            assert client.pending == 0


def test_oversized_frame_over_socket_gets_error_reply():
    """An over-long first line is a preamble violation: one
    ``ProtocolError`` reply frame, the same type the frame loop uses
    for an oversized length prefix, then the connection closes."""
    with ServiceThread(TopKService()) as live:
        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as raw:
            raw.sendall(b"x" * (msg.MAX_FRAME_BYTES + 2048) + b"\n")
            raw.settimeout(10)
            handle = raw.makefile("rb")
            reply, __ = wire.decode_frame(wire.read_frame_blocking(handle))
            assert isinstance(reply, msg.ErrorReply)
            assert reply.error == "ProtocolError"
            assert "protocol limit" in reply.message
            # the connection is closed after the protocol violation
            assert handle.read(1) == b""


# -- liveness: timeouts, retry, unavailability ------------------------------


def test_connect_refused_is_typed():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    with pytest.raises(ServiceUnavailableError, match="cannot connect"):
        SocketClient("127.0.0.1", port, timeout_s=2.0)


def test_read_timeout_is_typed():
    """A server that accepts but never replies trips the read timeout."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        client = SocketClient("127.0.0.1", port, timeout_s=0.3)
        with pytest.raises(ServiceUnavailableError, match="did not reply"):
            client.request(msg.GetStats())


def test_idempotent_request_retries_once_over_fresh_connection():
    with ServiceThread(TopKService()) as live:
        with SocketClient(live.host, live.port) as client:
            assert isinstance(client.request(msg.GetStats()), msg.StatsReply)
            # sever the transport under the client; get_stats recovers
            client._sock.shutdown(socket.SHUT_RDWR)
            assert isinstance(client.request(msg.GetStats()), msg.StatsReply)


def test_mutating_request_is_never_retried():
    with ServiceThread(TopKService()) as live:
        with SocketClient(live.host, live.port) as client:
            topology_id = client.register_topology(PARENTS)
            session = client.open_session(topology_id, 2, budget_mj=50.0)
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ServiceUnavailableError):
                session.feed(_rows()[0])


# -- graceful shutdown ------------------------------------------------------


def test_service_drain_refuses_new_work_finishes_close():
    service = TopKService()
    client = InProcessClient(service)
    topology_id = client.register_topology(PARENTS)
    session = client.open_session(topology_id, 2, budget_mj=50.0)
    for row in _rows()[:3]:
        session.feed(row)
    service.begin_drain()
    with pytest.raises(ServiceUnavailableError, match="draining"):
        session.feed(_rows()[3])
    with pytest.raises(ServiceUnavailableError, match="no new sessions"):
        client.open_session(topology_id, 2, budget_mj=50.0)
    # the wind-down path stays open
    closed = session.close()
    assert closed.session_id == session.session_id


def test_socket_shutdown_answers_inflight_then_closes():
    import time

    service = TopKService()
    with ServiceThread(service, grace_seconds=5.0) as live:
        with SocketClient(live.host, live.port) as client:
            topology_id = client.register_topology(PARENTS)
            session = client.open_session(topology_id, 2, budget_mj=50.0)
            for row in _rows()[:3]:
                session.feed(row)
            # a pipelined burst on the wire when the drain begins
            session.query_nowait(_rows()[0])
            session.query_nowait(_rows()[1])
            client._file.flush()
            server_session = service.session(session.session_id)
            deadline = time.monotonic() + 10.0
            while (
                server_session.requests_handled < 5
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            live.shutdown()
            replies = client.drain()
            assert len(replies) == 2
            assert all(isinstance(r, msg.QueryReply) for r in replies)
    # the thread joined: the listener is gone
    with pytest.raises(ServiceUnavailableError):
        SocketClient(live.host, live.port, timeout_s=2.0)
