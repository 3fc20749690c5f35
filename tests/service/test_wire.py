"""Binary protocol v2: exact round-trips, strictness, and the socket
boundary (preamble and mid-connection violations)."""

import inspect
import math
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import messages as msg
from repro.service import wire
from repro.service.client import SocketClient, connect
from repro.service.server import ServiceConfig, ServiceThread, TopKService
from repro.service.shard import ShardedClient, ShardedService

EXAMPLES = [
    msg.RegisterTopology(parents=(-1, 0, 0, 1, 1)),
    msg.OpenSession(
        topology_id="abc123", k=3, planner="lp-no-lf", budget_mj=75.5,
        window_capacity=10, replan_every=4, track_truth=False,
    ),
    msg.FeedSample(session_id="s0001", readings=(1.0, 2.5, -3.75)),
    msg.SubmitQuery(session_id="s0001", readings=(0.5, 0.25, 0.125)),
    msg.StepEpoch(session_id="s0002", readings=(9.0, 8.0, 7.0)),
    msg.SubmitBatch(
        session_id="s0001",
        readings=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
    ),
    msg.GetPlan(session_id="s0001"),
    msg.CloseSession(session_id="s0001"),
    msg.GetStats(),
    msg.TopologyRegistered(topology_id="abc123", num_nodes=5),
    msg.SessionOpened(
        session_id="s0001", topology_id="abc123", planner="lp-lf"
    ),
    msg.SampleAccepted(session_id="s0001", window_size=4),
    msg.QueryReply(
        session_id="s0001", nodes=(3, 1), values=(9.5, 7.25),
        energy_mj=12.5, accuracy=0.5,
    ),
    msg.QueryReply(session_id="s0001", accuracy=None),
    msg.StepReply(
        session_id="s0001", epoch=7, action="query", energy_mj=3.5,
        nodes=(2,), values=(4.5,), accuracy=1.0,
    ),
    msg.StepReply(session_id="s0001", epoch=8, action="sample"),
    msg.BatchReply(
        session_id="s0001",
        nodes=((3, 1), (2,)),
        values=((9.5, 7.25), (4.5,)),
        energies=(12.5, 3.5),
        accuracies=(0.5, None),
    ),
    msg.PlanReply(
        session_id="s0001",
        plan={"format_version": 1, "bandwidths": {"1": 2}},
    ),
    msg.SessionClosed(session_id="s0001", epochs=9, total_energy_mj=101.5),
    msg.StatsReply(
        sessions_open=2, sessions_total=5, topologies=1,
        counters={"cache": {"hits": 3}},
    ),
    msg.ErrorReply(error="OverloadError", message="shed"),
]

def _examples_cover_every_kind():
    return {m.kind for m in EXAMPLES} == set(msg.MESSAGE_KINDS)


def test_examples_cover_every_registered_kind():
    assert _examples_cover_every_kind(), (
        set(msg.MESSAGE_KINDS) - {m.kind for m in EXAMPLES}
    )


@pytest.mark.parametrize("message", EXAMPLES, ids=lambda m: type(m).__name__)
def test_v2_exact_round_trip(message):
    frame = wire.encode_frame(message)
    body = frame[4:]
    assert struct.unpack(">I", frame[:4])[0] == len(body)
    rehydrated, cid = wire.decode_frame(body)
    assert cid is None
    assert rehydrated == message
    assert type(rehydrated) is type(message)
    # stable under a second pass (no lossy normalization)
    assert wire.encode_frame(rehydrated) == frame


def test_cid_rides_the_header():
    for cid in (0, 1, 7, 2**32, 2**64 - 1):
        frame = wire.encode_frame(msg.GetStats(), cid=cid)
        __, echoed = wire.decode_frame(frame[4:])
        assert echoed == cid
    with pytest.raises(ProtocolError):
        wire.encode_frame(msg.GetStats(), cid=2**64)
    with pytest.raises(ProtocolError):
        wire.encode_frame(msg.GetStats(), cid=-1)


def test_kind_codes_are_pinned():
    """Wire codes are protocol: new kinds append, old codes never move."""
    assert wire.KIND_CODES == {
        "register_topology": 1,
        "open_session": 2,
        "feed_sample": 3,
        "submit_query": 4,
        "step_epoch": 5,
        "get_plan": 6,
        "close_session": 7,
        "get_stats": 8,
        "submit_batch": 9,
        "topology_registered": 10,
        "session_opened": 11,
        "sample_accepted": 12,
        "query_reply": 13,
        "step_reply": 14,
        "plan_reply": 15,
        "session_closed": 16,
        "stats_reply": 17,
        "error": 18,
        "batch_reply": 19,
    }
    assert set(wire.KIND_CODES) == set(msg.MESSAGE_KINDS)
    assert set(wire._FIELD_SPECS) == set(msg.MESSAGE_KINDS)


# -- property tests --------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_session = st.text(min_size=0, max_size=12)
_fvec = st.lists(_finite, max_size=6).map(tuple)
_ivec = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), max_size=6
).map(tuple)


def _round_trip(message):
    decoded, __ = wire.decode_frame(wire.encode_frame(message)[4:])
    assert decoded == message


@settings(max_examples=60, deadline=None)
@given(session_id=_session, readings=_fvec)
def test_feed_sample_round_trips(session_id, readings):
    _round_trip(
        msg.FeedSample(session_id=session_id, readings=readings)
    )


@settings(max_examples=60, deadline=None)
@given(
    session_id=_session,
    nodes=_ivec,
    values=_fvec,
    energy_mj=_finite,
    accuracy=st.none() | _finite,
)
def test_query_reply_round_trips(
    session_id, nodes, values, energy_mj, accuracy
):
    _round_trip(
        msg.QueryReply(
            session_id=session_id, nodes=nodes, values=values,
            energy_mj=energy_mj, accuracy=accuracy,
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    session_id=_session,
    rows=st.integers(min_value=0, max_value=4),
    cols=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_submit_batch_round_trips(
    session_id, rows, cols, data
):
    matrix = tuple(
        tuple(
            data.draw(_finite) for __ in range(cols)
        )
        for __ in range(rows)
    )
    _round_trip(
        msg.SubmitBatch(session_id=session_id, readings=matrix)
    )


@settings(max_examples=60, deadline=None)
@given(
    session_id=_session,
    energies=_fvec,
    accuracies=st.lists(st.none() | _finite, max_size=6).map(tuple),
    data=st.data(),
)
def test_batch_reply_round_trips(
    session_id, energies, accuracies, data
):
    rows = len(energies)
    nodes = tuple(data.draw(_ivec) for __ in range(rows))
    values = tuple(data.draw(_fvec) for __ in range(rows))
    _round_trip(
        msg.BatchReply(
            session_id=session_id, nodes=nodes, values=values,
            energies=energies, accuracies=accuracies,
        )
    )


# -- strictness ------------------------------------------------------------

@pytest.mark.parametrize(
    "message",
    [
        msg.QueryReply(session_id="s1", accuracy=float("nan")),
        msg.QueryReply(session_id="s1", values=(float("inf"),)),
        msg.FeedSample(session_id="s1", readings=(1.0, float("nan"))),
        msg.SubmitBatch(session_id="s1", readings=((float("-inf"),),)),
        msg.BatchReply(session_id="s1", energies=(float("nan"),)),
    ],
    ids=["nan-optf", "inf-fvec", "nan-fvec", "inf-fmat", "nan-energies"],
)
def test_non_finite_floats_are_rejected_on_encode(message):
    with pytest.raises(ProtocolError):
        wire.encode_frame(message)


def test_trailing_bytes_are_rejected():
    frame = wire.encode_frame(msg.GetPlan(session_id="s9"))
    with pytest.raises(ProtocolError, match="trailing"):
        wire.decode_frame(frame[4:] + b"\x00")


def test_truncated_payload_is_rejected():
    frame = wire.encode_frame(
        msg.FeedSample(session_id="s0001", readings=(1.0, 2.0, 3.0))
    )
    body = frame[4:]
    for cut in range(wire._HEADER.size, len(body)):
        with pytest.raises(ProtocolError):
            wire.decode_frame(body[:cut])


def test_unknown_kind_code_and_flags_are_rejected():
    good = wire.encode_frame(msg.GetStats())[4:]
    with pytest.raises(ProtocolError, match="kind code"):
        wire.decode_frame(bytes([255]) + good[1:])
    with pytest.raises(ProtocolError, match="flag bits"):
        wire.decode_frame(good[:1] + bytes([0x80]) + good[2:])


def test_oversized_frame_is_rejected_on_encode():
    big = msg.SubmitBatch(
        session_id="s1",
        readings=np.zeros((600, 300)),
    )
    with pytest.raises(ProtocolError, match="protocol limit"):
        wire.encode_frame(big)


def test_zero_copy_array_mode():
    matrix = np.arange(12.0).reshape(3, 4)
    frame = wire.encode_frame(msg.SubmitBatch(session_id="s", readings=matrix))
    decoded, __ = wire.decode_frame(frame[4:], vectors="array")
    arr = decoded.readings
    assert isinstance(arr, np.ndarray)
    assert not arr.flags.writeable  # a view over the frame, not a copy
    np.testing.assert_array_equal(arr, matrix)


# -- preamble lines ---------------------------------------------------------

def test_negotiation_lines_round_trip():
    assert wire.hello_line() == b"\x00repro-wire hello v2\n"
    assert wire.accept_line() == b"\x00repro-wire accept v2\n"
    wire.parse_hello(wire.hello_line())
    wire.parse_accept(wire.accept_line())
    with pytest.raises(ProtocolError):
        wire.parse_hello(wire.accept_line())
    with pytest.raises(ProtocolError):
        wire.parse_accept(wire.hello_line())


@pytest.mark.parametrize(
    "line",
    [
        b"\x00repro-wire hello v3 {}\n",
        b"\x00repro-wire goodbye v2 {}\n",
        b"\x00not-the-magic hello v2 {}\n",
        b"\x00repro-wire hello v2 [1]\n",
        b"\x00repro-wire hello v2 not-json\n",
        b"\x00repro-wire hello\n",
    ],
)
def test_malformed_negotiation_lines_are_rejected(line):
    with pytest.raises(ProtocolError):
        wire.parse_hello(line)


# -- blocking frame reader --------------------------------------------------

class _Stream:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, n: int) -> bytes:
        chunk = self._data[self._pos : self._pos + n]
        self._pos += len(chunk)
        return chunk


def test_read_frame_blocking_round_trip():
    frame = wire.encode_frame(msg.GetStats(), cid=5)
    stream = _Stream(frame + frame)
    for __ in range(2):
        body = wire.read_frame_blocking(stream)
        decoded, cid = wire.decode_frame(body)
        assert decoded == msg.GetStats() and cid == 5
    assert wire.read_frame_blocking(stream) == b""


@pytest.mark.parametrize(
    "data, match",
    [
        (b"\x00\x00", "truncated frame length prefix"),
        (b"\x00\x00\x00\x20hi", "truncated frame body"),
        (struct.pack(">I", msg.MAX_FRAME_BYTES + 1), "protocol limit"),
        (b"\x00\x00\x00\x01x", "below the header"),
    ],
)
def test_read_frame_blocking_rejects_bad_streams(data, match):
    with pytest.raises(ProtocolError, match=match):
        wire.read_frame_blocking(_Stream(data))


# -- the socket boundary ----------------------------------------------------
# Every socket below carries a read timeout, so a regression that leaves
# either side waiting fails the test instead of hanging the run.

TIMEOUT_S = 10.0
PARENTS = (-1, 0, 0, 1, 1, 2, 5)


def _server(**overrides):
    return ServiceThread(TopKService(ServiceConfig(**overrides)))


def _client(live):
    return SocketClient(live.host, live.port, timeout_s=TIMEOUT_S)


def _exercise(client):
    """One full session with a scalar and a batched query."""
    rng = np.random.default_rng(3)
    topology_id = client.register_topology(PARENTS)
    session = client.open_session(topology_id, 2, budget_mj=500.0)
    rows = [tuple(rng.uniform(0, 100, len(PARENTS))) for __ in range(4)]
    for row in rows[:3]:
        session.feed(row)
    session.query(rows[3])
    session.query_batch(np.array(rows))


def _raw_connection(live):
    raw = socket.create_connection((live.host, live.port), timeout=TIMEOUT_S)
    raw.settimeout(TIMEOUT_S)
    return raw, raw.makefile("rwb")


def _raw_after_preamble(live):
    raw, handle = _raw_connection(live)
    handle.write(wire.hello_line())
    handle.flush()
    wire.parse_accept(handle.readline())
    return raw, handle


def _read_error_frame(handle):
    reply, __ = wire.decode_frame(wire.read_frame_blocking(handle))
    assert isinstance(reply, msg.ErrorReply)
    return reply


def _assert_listener_serves(live):
    with _client(live) as client:
        assert isinstance(client.request(msg.GetStats()), msg.StatsReply)


def _assert_preamble_refused(first_line: bytes) -> None:
    """One ``ProtocolError`` reply frame, then EOF; the listener keeps
    serving fresh clients."""
    with _server() as live:
        raw, handle = _raw_connection(live)
        try:
            handle.write(first_line)
            handle.flush()
            reply = _read_error_frame(handle)
            assert reply.error == "ProtocolError"
            assert handle.read(1) == b""
        finally:
            raw.close()
        _assert_listener_serves(live)


def test_json_line_preamble_gets_error_frame_then_eof():
    _assert_preamble_refused(b'{"kind": "get_stats"}\n')


def test_unsupported_hello_version_gets_error_frame_then_eof():
    _assert_preamble_refused(b"\x00repro-wire hello v99 {}\n")


def test_old_format_hello_gets_error_frame_then_eof():
    """A hello that still carries an options token (what an older peer
    sends) is refused, never half-understood."""
    _assert_preamble_refused(b"\x00repro-wire hello v2 {}\n")


def _assert_client_refuses(answer: bytes) -> None:
    """A peer answering the hello with ``answer`` (and then holding the
    connection open) makes the client raise ``ProtocolError`` at once."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(TIMEOUT_S)
        port = listener.getsockname()[1]
        done = threading.Event()

        def peer():
            conn, __ = listener.accept()
            with conn:
                conn.settimeout(TIMEOUT_S)
                conn.makefile("rb").readline()
                conn.sendall(answer)
                done.wait(TIMEOUT_S)

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        try:
            client = SocketClient("127.0.0.1", port, timeout_s=TIMEOUT_S)
            with pytest.raises(ProtocolError, match="did not accept"):
                client.request(msg.GetStats())
            assert client._sock is None  # torn down before raising
        finally:
            done.set()
            thread.join(TIMEOUT_S)
        assert not thread.is_alive()


def test_client_rejects_a_non_accept_answer():
    _assert_client_refuses(b"not an accept line\n")


def test_client_rejects_an_old_format_accept():
    """An accept line with an options token (an older server's) is
    refused rather than taken for this protocol."""
    _assert_client_refuses(b'\x00repro-wire accept v2 {"blob_dir": "/x"}\n')


@pytest.mark.parametrize(
    "surface",
    [SocketClient, connect, ShardedClient, ShardedService.client],
    ids=lambda surface: surface.__qualname__,
)
def test_no_knob_selects_a_protocol(surface):
    assert "protocol" not in ServiceConfig.__dataclass_fields__
    assert "protocol" not in inspect.signature(surface).parameters


def test_garbage_frame_body_gets_error_reply_and_survives():
    """A well-framed but undecodable body is a per-request error and
    the connection keeps serving."""
    with _server() as live:
        raw, handle = _raw_after_preamble(live)
        try:
            # a plausible length prefix fronting a nonsense body
            handle.write(struct.pack(">I", 16) + b"\xff" * 16)
            handle.flush()
            reply = _read_error_frame(handle)
            assert reply.error == "ProtocolError"
            handle.write(wire.encode_frame(msg.GetStats()))
            handle.flush()
            body = wire.read_frame_blocking(handle)
            decoded, __ = wire.decode_frame(body)
            assert isinstance(decoded, msg.StatsReply)
        finally:
            raw.close()


def test_bogus_length_prefix_gets_error_then_close():
    with _server() as live:
        raw, handle = _raw_after_preamble(live)
        try:
            handle.write(struct.pack(">I", msg.MAX_FRAME_BYTES + 1))
            handle.flush()
            reply = _read_error_frame(handle)
            assert reply.error == "ProtocolError"
            assert "protocol limit" in reply.message
            assert handle.read(1) == b""
        finally:
            raw.close()


def _assert_burst_then_framing_error(tail: bytes, match: str, close_write):
    """Three valid frames then ``tail`` in one write: three replies in
    cid order, one cid-less ``ProtocolError`` reply, EOF; the listener
    keeps serving."""
    requests = (
        msg.RegisterTopology(parents=PARENTS), msg.GetStats(), msg.GetStats()
    )
    burst = b"".join(
        wire.encode_frame(request, cid=cid)
        for cid, request in enumerate(requests)
    )
    with _server() as live:
        raw, handle = _raw_after_preamble(live)
        try:
            raw.sendall(burst + tail)
            if close_write:
                raw.shutdown(socket.SHUT_WR)
            replies = [
                wire.decode_frame(wire.read_frame_blocking(handle))
                for __ in range(4)
            ]
            assert handle.read(1) == b""
        finally:
            handle.close()
            raw.close()
        assert [cid for __, cid in replies] == [0, 1, 2, None]
        assert isinstance(replies[0][0], msg.TopologyRegistered)
        assert all(isinstance(r, msg.StatsReply) for r, __ in replies[1:3])
        error = replies[3][0]
        assert isinstance(error, msg.ErrorReply)
        assert error.error == "ProtocolError"
        assert match in error.message
        _assert_listener_serves(live)


def test_oversized_prefix_mid_burst_answers_the_frames_before_it():
    _assert_burst_then_framing_error(
        struct.pack(">I", msg.MAX_FRAME_BYTES + 1),
        "protocol limit",
        close_write=False,
    )


def test_truncated_body_at_eof_mid_burst_answers_the_frames_before_it():
    _assert_burst_then_framing_error(
        struct.pack(">I", 64) + b"\x00" * 10,
        "truncated frame body",
        close_write=True,
    )


def test_truncated_length_prefix_is_survived():
    """A client dying mid-prefix must not wedge or crash the server."""
    with _server() as live:
        raw, handle = _raw_after_preamble(live)
        handle.write(b"\x00\x00")
        handle.flush()
        raw.close()
        _assert_listener_serves(live)


def test_truncated_frame_body_is_survived():
    with _server() as live:
        raw, handle = _raw_after_preamble(live)
        handle.write(struct.pack(">I", 64) + b"\x00" * 10)
        handle.flush()
        raw.close()
        _assert_listener_serves(live)


def test_oversized_v2_frame_from_server_side_client():
    """An oversized *encode* is refused client-side before it ships."""
    with _server() as live:
        with _client(live) as client:
            topology_id = client.register_topology(PARENTS)
            session = client.open_session(topology_id, 2, budget_mj=500.0)
            with pytest.raises(ProtocolError, match="protocol limit"):
                session.query_batch(np.zeros((25_000, len(PARENTS))))


def test_reconnect_retry_repeats_the_preamble():
    with _server() as live:
        with _client(live) as client:
            assert isinstance(client.request(msg.GetStats()), msg.StatsReply)
            # sever the transport under the client: the idempotent
            # retry reconnects and opens the new connection with the
            # preamble again
            client._sock.shutdown(socket.SHUT_RDWR)
            stats = client.request(msg.GetStats())
    assert stats.counters["wire"]["connections"] == 2


def test_wire_stats_expose_bytes_per_request():
    with _server() as live:
        with _client(live) as client:
            _exercise(client)
            stats = client.request(msg.GetStats())
    wire_stats = stats.counters["wire"]
    assert wire_stats["connections"] == 1
    assert wire_stats["requests"] > 0
    assert wire_stats["request_bytes"] > 0
    assert wire_stats["reply_bytes"] > 0
    assert wire_stats["bytes_per_request"] > 0
