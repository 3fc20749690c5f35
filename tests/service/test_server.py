"""Service core: lifecycle, admission, expiry, overload, shared caches."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    OverloadError,
    ServiceError,
    SessionError,
)
from repro.obs import Instrumentation
from repro.obs.distributed import REQUEST_LATENCY_METRIC
from repro.plans.serialize import plan_from_dict
from repro.service import messages as msg
from repro.service import wire
from repro.service.server import ServiceConfig, TopKService

PARENTS = (-1, 0, 0, 1, 1, 2, 5)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def service(clock):
    return TopKService(
        ServiceConfig(max_sessions=2, queue_limit=2, session_ttl_s=60.0),
        clock=clock,
    )


def _open(service, **overrides):
    topology_id = service.register_topology(PARENTS)
    defaults = dict(topology_id=topology_id, k=2, budget_mj=60.0)
    defaults.update(overrides)
    return service.handle(msg.OpenSession(**defaults))


def _readings(seed=0):
    return tuple(np.random.default_rng(seed).normal(25, 3, len(PARENTS)))


# -- registry ---------------------------------------------------------------


def test_register_topology_is_idempotent(service):
    first = service.handle(msg.RegisterTopology(parents=PARENTS))
    second = service.handle(msg.RegisterTopology(parents=PARENTS))
    assert first == second
    assert first.num_nodes == len(PARENTS)


def test_open_against_unknown_topology_fails(service):
    with pytest.raises(ServiceError, match="unknown topology"):
        service.handle(msg.OpenSession(topology_id="nope", k=2))


def test_unknown_planner_fails(service):
    with pytest.raises(ServiceError, match="unknown planner"):
        _open(service, planner="quantum")


# -- session lifecycle ------------------------------------------------------


def test_full_session_lifecycle(service):
    opened = _open(service)
    sid = opened.session_id
    accepted = service.handle(
        msg.FeedSample(session_id=sid, readings=_readings())
    )
    assert accepted.window_size == 1
    reply = service.handle(
        msg.SubmitQuery(session_id=sid, readings=_readings(1))
    )
    assert len(reply.nodes) == 2
    assert reply.energy_mj > 0
    plan_reply = service.handle(msg.GetPlan(session_id=sid))
    plan = plan_from_dict(
        plan_reply.plan, service.topology(opened.topology_id)
    )
    assert plan.bandwidths
    closed = service.handle(msg.CloseSession(session_id=sid))
    assert closed.total_energy_mj > 0
    with pytest.raises(SessionError, match="closed"):
        service.handle(msg.SubmitQuery(session_id=sid, readings=_readings()))


def test_unknown_session(service):
    with pytest.raises(SessionError, match="unknown session"):
        service.handle(msg.GetPlan(session_id="s9999"))


def test_admission_control_rejects_beyond_capacity(service):
    _open(service)
    _open(service)
    with pytest.raises(AdmissionError, match="at capacity"):
        _open(service)


def test_closing_frees_an_admission_slot(service):
    _open(service)
    second = _open(service)
    service.handle(msg.CloseSession(session_id=second.session_id))
    _open(service)  # does not raise


def test_idle_sessions_expire_and_free_slots(service, clock):
    first = _open(service)
    clock.now = 61.0  # past the 60 s TTL
    with pytest.raises(SessionError, match="expired"):
        service.handle(
            msg.FeedSample(session_id=first.session_id, readings=_readings())
        )
    # the expired session no longer counts against admission
    _open(service)
    _open(service)


def test_activity_refreshes_the_idle_clock(service, clock):
    opened = _open(service)
    clock.now = 50.0
    service.handle(
        msg.FeedSample(session_id=opened.session_id, readings=_readings())
    )
    clock.now = 100.0  # 50 s idle < TTL, measured from last use
    service.handle(
        msg.FeedSample(session_id=opened.session_id, readings=_readings(1))
    )


def test_overload_sheds_when_queue_is_full(service):
    opened = _open(service)
    session = service.session(opened.session_id)
    started = threading.Barrier(service.config.queue_limit + 1)
    release = threading.Event()
    failures = []

    def occupant():
        started.wait()
        try:
            with session.slot():
                release.wait(timeout=10)
        except OverloadError:  # pragma: no cover - should not shed here
            failures.append("occupant shed")

    threads = [
        threading.Thread(target=occupant)
        for __ in range(service.config.queue_limit)
    ]
    for t in threads:
        t.start()
    started.wait()
    deadline = time.monotonic() + 10
    while session._pending < service.config.queue_limit:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    with pytest.raises(OverloadError, match="shed"):
        service.handle(
            msg.FeedSample(session_id=opened.session_id, readings=_readings())
        )
    release.set()
    for t in threads:
        t.join()
    assert not failures
    assert session.requests_shed == 1


# -- shared caches across sessions -----------------------------------------


def test_two_sessions_share_one_compiled_form():
    """The headline multi-tenancy property: two sessions on the same
    topology with identical windows produce exactly one
    ``fastbuild.compile`` span — the second session's plan is a pure
    shared-cache hit."""
    obs = Instrumentation()
    service = TopKService(instrumentation=obs)
    topology_id = service.register_topology(PARENTS)
    sessions = [
        service.handle(
            msg.OpenSession(topology_id=topology_id, k=2, budget_mj=60.0)
        )
        for __ in range(2)
    ]
    warmup = [_readings(seed) for seed in range(3)]
    for opened in sessions:
        for row in warmup:
            service.handle(
                msg.FeedSample(session_id=opened.session_id, readings=row)
            )
    replies = [
        service.handle(
            msg.SubmitQuery(session_id=opened.session_id,
                            readings=_readings(7))
        )
        for opened in sessions
    ]
    assert replies[0].nodes == replies[1].nodes
    compile_spans = obs.spans.find("compile")
    assert len(compile_spans) == 1
    assert service.cache.hits == 1
    assert service.cache.misses == 1
    assert obs.counter("service.cache.hits").value == 1


def test_different_windows_compile_separately():
    service = TopKService()
    topology_id = service.register_topology(PARENTS)
    for seed in range(2):
        opened = service.handle(
            msg.OpenSession(topology_id=topology_id, k=2, budget_mj=60.0)
        )
        service.handle(
            msg.FeedSample(
                session_id=opened.session_id, readings=_readings(seed)
            )
        )
        service.handle(
            msg.SubmitQuery(
                session_id=opened.session_id, readings=_readings(9)
            )
        )
    assert service.cache.misses == 2
    assert service.cache.hits == 0


# -- observability ----------------------------------------------------------


def test_per_session_energy_ledgers_are_isolated(service):
    first = _open(service)
    second = _open(service)
    service.handle(
        msg.FeedSample(session_id=first.session_id, readings=_readings())
    )
    service.handle(
        msg.SubmitQuery(session_id=first.session_id, readings=_readings(1))
    )
    busy = service.ledger_of(first.session_id)
    idle = service.ledger_of(second.session_id)
    assert busy.energy_mj.sum() > 0
    assert idle.energy_mj.sum() == 0


def test_stats_reply_summarizes_service_state(service, clock):
    opened = _open(service)
    service.handle(
        msg.FeedSample(session_id=opened.session_id, readings=_readings())
    )
    stats = service.handle(msg.GetStats())
    assert stats.sessions_open == 1
    assert stats.sessions_total == 1
    assert stats.topologies == 1
    assert stats.counters["requests_handled"] == 1
    assert "cache" in stats.counters


def test_request_spans_and_counters(clock):
    obs = Instrumentation()
    service = TopKService(instrumentation=obs, clock=clock)
    topology_id = service.register_topology(PARENTS)
    opened = service.handle(
        msg.OpenSession(topology_id=topology_id, k=2, budget_mj=60.0)
    )
    service.handle(
        msg.FeedSample(session_id=opened.session_id, readings=_readings())
    )
    assert obs.counter("service.requests").value == 2
    assert obs.counter("service.requests.feed_sample").value == 1
    assert len(obs.spans.find("service.request")) == 2


def test_error_counters_track_typed_failures(clock):
    obs = Instrumentation()
    service = TopKService(instrumentation=obs, clock=clock)
    with pytest.raises(SessionError):
        service.handle(msg.GetPlan(session_id="sX"))
    assert obs.counter("service.errors.SessionError").value == 1


def test_telemetry_metrics_hold_buckets_not_observations():
    """Histogram dumps carry bucket counts, so a long-running service's
    telemetry snapshot stays small however many requests it answered."""
    obs = Instrumentation()
    service = TopKService(instrumentation=obs)
    session_id = _open(service).session_id
    for seed in range(3):
        service.handle(
            msg.FeedSample(session_id=session_id, readings=_readings(seed))
        )
    query = msg.SubmitQuery(session_id=session_id, readings=_readings(9))
    for __ in range(6000):
        service.handle(query)
    metrics = service.telemetry_snapshot()["metrics"]
    latency = metrics["histograms"][REQUEST_LATENCY_METRIC]
    assert latency["count"] == 6000 + 3 + 1
    assert set(latency) == {"gamma", "count", "total", "min", "max", "buckets"}
    assert len(pickle.dumps(metrics)) < 20_000


# -- frame transport --------------------------------------------------------


def _frame_reply(service, body: bytes):
    reply, cid = wire.decode_frame(service.handle_frame(body)[4:])
    return reply, cid


def test_handle_frame_round_trip(service):
    frame = wire.encode_frame(msg.RegisterTopology(parents=PARENTS), cid=9)
    reply, cid = _frame_reply(service, frame[4:])
    assert isinstance(reply, msg.TopologyRegistered)
    assert cid == 9


def test_handle_frame_serializes_typed_errors(service):
    frame = wire.encode_frame(msg.GetPlan(session_id="sX"), cid=4)
    reply, cid = _frame_reply(service, frame[4:])
    assert isinstance(reply, msg.ErrorReply)
    assert reply.error == "SessionError"
    assert cid == 4


def test_handle_frame_survives_garbage(service):
    reply, cid = _frame_reply(service, b"\xff" * 16)
    assert isinstance(reply, msg.ErrorReply)
    assert reply.error == "ProtocolError"
    assert cid is None


def test_handle_rejects_reply_kinds(service):
    with pytest.raises(ServiceError, match="reply kind"):
        service.handle(msg.SessionClosed(session_id="s1"))
