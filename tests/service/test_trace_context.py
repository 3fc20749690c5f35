"""Trace-context propagation over the binary wire protocol (S3).

The context must ride a frame's header block byte-exactly, survive the
idempotent reconnect-retry, and stitch client and server spans under
one trace id.
"""

import numpy as np
import pytest

from repro.errors import ProtocolError, ServiceUnavailableError
from repro.obs import Instrumentation, TraceContext
from repro.service import messages as msg
from repro.service import wire
from repro.service.client import SocketClient
from repro.service.server import ServiceConfig, ServiceThread, TopKService

CTX = TraceContext(trace_id=0xDEADBEEF00C0FFEE, parent_span_id=42)


# -- codec round-trips (no sockets) ----------------------------------------


class TestV2Frames:
    def test_trace_block_round_trips(self):
        request = msg.GetStats()
        frame = wire.encode_frame(request, cid=7, trace=CTX)
        decoded, cid, trace = wire.decode_frame_trace(frame[4:])
        assert decoded == request
        assert cid == 7
        assert trace == CTX

    def test_flag_bit_is_set_only_with_a_trace(self):
        flags_with = wire.encode_frame(msg.GetStats(), trace=CTX)[5]
        flags_without = wire.encode_frame(msg.GetStats())[5]
        assert flags_with & wire.FLAG_TRACE
        assert not flags_without & wire.FLAG_TRACE

    def test_legacy_decode_frame_stays_a_two_tuple(self):
        """Old callers keep working: the trace is parsed (not rejected
        as an unknown flag) and simply not returned."""
        frame = wire.encode_frame(msg.GetStats(), trace=CTX)
        assert wire.decode_frame(frame[4:]) == (msg.GetStats(), None)

    def test_truncated_trace_block_is_rejected(self):
        frame = wire.encode_frame(msg.GetStats(), trace=CTX)
        body = frame[4:]
        truncated = body[: wire._HEADER.size + 8]  # half the block
        with pytest.raises(ProtocolError):
            wire.decode_frame_trace(truncated)

    def test_zero_trace_id_is_rejected(self):
        body = bytearray(wire.encode_frame(msg.GetStats(), trace=CTX)[4:])
        offset = wire._HEADER.size
        body[offset : offset + 8] = b"\x00" * 8
        with pytest.raises(ProtocolError):
            wire.decode_frame_trace(bytes(body))

    def test_trace_id_out_of_range_raises_on_encode(self):
        bad = TraceContext(trace_id=5)
        object.__setattr__(bad, "trace_id", 1 << 64)
        with pytest.raises(ProtocolError):
            wire.encode_frame(msg.GetStats(), trace=bad)


# -- server-side adoption ---------------------------------------------------


class TestServerAdoption:
    def _span_of(self, service):
        (root,) = service.instrumentation.spans.roots
        assert root.name == "service.request"
        return root

    def test_v2_frame_annotates_the_request_span(self):
        service = TopKService(instrumentation=Instrumentation())
        frame = wire.encode_frame(msg.GetStats(), trace=CTX)
        service.handle_frame(frame[4:])
        span = self._span_of(service)
        assert span.attributes["trace_id"] == CTX.trace_id
        assert span.attributes["parent_span_id"] == CTX.parent_span_id

    def test_untraced_requests_leave_spans_unannotated(self):
        service = TopKService(instrumentation=Instrumentation())
        service.handle_frame(wire.encode_frame(msg.GetStats())[4:])
        assert "trace_id" not in self._span_of(service).attributes


# -- live sockets -----------------------------------------------------------


def _query_session(client):
    topology_id = client.register_topology((-1, 0, 0, 1, 1))
    session = client.open_session(topology_id, k=2, budget_mj=50.0)
    rng = np.random.default_rng(3)
    for __ in range(3):
        session.feed(rng.normal(25, 3, 5))
    session.query(rng.normal(25, 3, 5))
    session.close()


def test_client_and_server_spans_share_one_trace_per_request():
    service = TopKService(
        ServiceConfig(), instrumentation=Instrumentation()
    )
    obs = Instrumentation()
    with ServiceThread(service) as live:
        with SocketClient(
            live.host, live.port, instrumentation=obs
        ) as client:
            _query_session(client)
    client_traces = [
        root.attributes["trace_id"] for root in obs.spans.roots
        if root.name == "client.request"
    ]
    server_traces = [
        root.attributes["trace_id"]
        for root in service.instrumentation.spans.roots
        if root.name == "service.request"
    ]
    assert client_traces == server_traces
    assert len(set(client_traces)) == len(client_traces)  # one per request


def test_reconnect_retry_reuses_the_same_trace_id(monkeypatch):
    """The idempotent retry is the same logical request, so both
    attempts must carry the same trace context."""
    service = TopKService(instrumentation=Instrumentation())
    obs = Instrumentation()
    with ServiceThread(service) as live:
        with SocketClient(
            live.host, live.port, instrumentation=obs
        ) as client:
            seen = []
            real = SocketClient._roundtrip

            def flaky(self, request, trace=None):
                seen.append(trace)
                if len(seen) == 1:
                    raise ServiceUnavailableError("connection lost")
                return real(self, request, trace=trace)

            monkeypatch.setattr(SocketClient, "_roundtrip", flaky)
            reply = client.stats()
    assert reply.sessions_open == 0
    assert len(seen) == 2
    assert seen[0] is not None
    assert seen[0].trace_id == seen[1].trace_id
    (root,) = obs.spans.roots
    assert root.attributes["retried"] is True
    assert root.attributes["trace_id"] == seen[0].trace_id


def test_pipelined_frames_carry_per_frame_traces():
    service = TopKService(instrumentation=Instrumentation())
    obs = Instrumentation()
    with ServiceThread(service) as live:
        with SocketClient(
            live.host, live.port, instrumentation=obs
        ) as client:
            client.submit_nowait(msg.GetStats())
            client.submit_nowait(msg.GetStats())
            replies = client.drain()
    assert len(replies) == 2
    submit_traces = [
        root.attributes["trace_id"] for root in obs.spans.roots
        if root.name == "client.submit"
    ]
    server_traces = [
        root.attributes["trace_id"]
        for root in service.instrumentation.spans.roots
        if root.name == "service.request"
    ]
    assert submit_traces == server_traces
    assert len(set(submit_traces)) == 2
