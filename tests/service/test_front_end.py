"""The thread-per-connection socket front end: isolation, bounds, teardown.

Every socket read below carries a timeout, so a regression that leaves
either side waiting fails the test instead of hanging the run.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceUnavailableError
from repro.planners.greedy import GreedyPlanner
from repro.service import messages as msg
from repro.service import server, wire
from repro.service.client import InProcessClient, SocketClient
from repro.service.server import ServiceThread, TopKService

TIMEOUT_S = 10.0
PARENTS = (-1, 0, 0, 1, 1)


def _rows(n, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.normal(25, 3, len(PARENTS)) for __ in range(n)]


def _client(live):
    return SocketClient(live.host, live.port, timeout_s=TIMEOUT_S)


def _front_end_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-conn-", "repro-accept-"))
    }


class _GatedPlanner(GreedyPlanner):
    """Greedy, but each plan waits until the test opens the gate."""

    def __init__(self, entered, gate):
        super().__init__()
        self.entered = entered
        self.gate = gate

    def plan(self, context):
        self.entered.set()
        if not self.gate.wait(TIMEOUT_S):
            raise RuntimeError("the test never opened the gate")
        return super().plan(context)


def test_a_slow_plan_blocks_only_its_own_connection():
    entered, gate = threading.Event(), threading.Event()
    service = TopKService()
    service._make_planner = lambda name: _GatedPlanner(entered, gate)
    with ServiceThread(service) as live:
        with _client(live) as first, _client(live) as second:
            topology_id = first.register_topology(PARENTS)
            session = first.open_session(
                topology_id, 2, planner="greedy", budget_mj=50.0
            )
            for row in _rows(3):
                session.feed(row)
            planned = {}
            planning = threading.Thread(
                target=lambda: planned.update(plan=session.plan())
            )
            planning.start()
            try:
                assert entered.wait(TIMEOUT_S)
                # answered while the first connection waits on the gate
                stats = second.stats()
                assert stats.sessions_open == 1
                assert planning.is_alive()
            finally:
                gate.set()
                planning.join(TIMEOUT_S)
            assert not planning.is_alive()
            assert isinstance(planned["plan"], dict)


def test_a_client_that_stops_reading_stalls_only_itself():
    with ServiceThread(TopKService()) as live:
        stalled = socket.create_connection(
            (live.host, live.port), timeout=TIMEOUT_S
        )
        with stalled:
            stalled.sendall(wire.hello_line())
            wire.parse_accept(stalled.makefile("rb").readline())
            # a long session id comes back in a long error reply, so the
            # reply path fills up and then the request path behind it
            frame = wire.encode_frame(msg.GetPlan(session_id="x" * 65536))
            stalled.settimeout(0.5)
            with pytest.raises(TimeoutError):
                for __ in range(10_000):
                    stalled.sendall(frame)
            with _client(live) as other:
                assert isinstance(other.stats(), msg.StatsReply)


def test_a_thousand_frame_burst_drains_in_order():
    window, queries = _rows(3), _rows(1000, seed=8)

    def burst(client):
        topology_id = client.register_topology(PARENTS)
        session = client.open_session(topology_id, 2, budget_mj=50.0)
        for row in window:
            session.feed(row)
        for row in queries:
            session.query_nowait(row)
        return client.drain()

    expected = burst(InProcessClient(TopKService()))
    with ServiceThread(TopKService()) as live, _client(live) as client:
        replies = burst(client)
    assert len(replies) == len(queries)
    assert all(isinstance(reply, msg.QueryReply) for reply in replies)
    assert replies == expected


def test_connections_past_the_cap_are_refused(monkeypatch):
    monkeypatch.setattr(server, "MAX_CONNECTIONS", 2)
    with ServiceThread(TopKService()) as live:
        first, second = _client(live), _client(live)
        try:
            for client in (first, second):
                assert isinstance(client.stats(), msg.StatsReply)
            with _client(live) as third:
                with pytest.raises(ServiceUnavailableError):
                    third.stats()
            first.close()
            # the first connection's thread frees its slot once it sees EOF
            deadline = time.monotonic() + TIMEOUT_S
            while True:
                with _client(live) as fresh:
                    try:
                        assert isinstance(fresh.stats(), msg.StatsReply)
                        break
                    except ServiceUnavailableError:
                        if time.monotonic() > deadline:
                            raise
                time.sleep(0.02)
            assert isinstance(second.stats(), msg.StatsReply)
        finally:
            first.close()
            second.close()


def test_a_silent_peer_is_dropped_and_frees_its_slot(monkeypatch):
    """A connection that never sends its hello times out, so silent
    peers cannot hold every slot under the cap."""
    monkeypatch.setattr(server, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(server, "HELLO_TIMEOUT_S", 0.2)
    with ServiceThread(TopKService()) as live:
        with socket.create_connection(
            (live.host, live.port), timeout=TIMEOUT_S
        ) as silent:
            # the server gives up on the hello and closes the connection;
            # its slot is released before the close reaches this peer
            assert silent.recv(1) == b""
            with _client(live) as client:
                assert isinstance(client.stats(), msg.StatsReply)


def test_a_hello_that_trickles_in_is_dropped_at_the_deadline(monkeypatch):
    """The hello timeout is one deadline, not a per-read idle limit: a
    peer sending a byte every 50 ms is still dropped."""
    monkeypatch.setattr(server, "HELLO_TIMEOUT_S", 0.3)
    with ServiceThread(TopKService()) as live:
        with socket.create_connection(
            (live.host, live.port), timeout=TIMEOUT_S
        ) as peer:
            peer.settimeout(0.05)
            deadline = time.monotonic() + TIMEOUT_S
            while True:
                assert time.monotonic() < deadline, "never dropped"
                try:
                    peer.sendall(b"x")
                    if peer.recv(1) == b"":
                        break  # the server closed the connection
                except TimeoutError:
                    continue  # nothing yet: send the next byte
                except OSError:
                    break  # reset by the server


def test_exit_leaves_no_front_end_thread_running():
    before = _front_end_threads()
    with ServiceThread(TopKService()) as live:
        idle = _client(live)
        assert isinstance(idle.stats(), msg.StatsReply)
        started = _front_end_threads() - before
        assert {t.name.split("-")[1] for t in started} == {"accept", "conn"}
    try:
        assert not any(thread.is_alive() for thread in started)
        assert not _front_end_threads() - before
        # the idle connection was closed under the client
        with pytest.raises(ServiceUnavailableError):
            idle.stats()
    finally:
        idle.close()


def test_frames_sent_with_the_hello_are_answered():
    """Frames that arrive in the same read as the hello line are
    answered before the thread waits for more input."""
    with ServiceThread(TopKService()) as live:
        with socket.create_connection(
            (live.host, live.port), timeout=TIMEOUT_S
        ) as raw:
            raw.sendall(
                wire.hello_line() + wire.encode_frame(msg.GetStats(), cid=1)
            )
            handle = raw.makefile("rb")
            wire.parse_accept(handle.readline())
            reply, cid = wire.decode_frame(wire.read_frame_blocking(handle))
            assert isinstance(reply, msg.StatsReply) and cid == 1
