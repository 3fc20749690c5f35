"""Session lookup and expiry cost O(1) and O(expired), not O(sessions ever).

The service keeps its open sessions least-recently-used first; each
stamp of a session's ``last_used`` moves it to the back, so expiry pops
idle sessions off the front and stops at the first live one.  These
tests count the sessions a lookup inspects (structurally, not by
timing) and check every expiry against the full scan it replaces.
"""

import random

import numpy as np
import pytest

from repro.errors import SessionError
from repro.obs import Instrumentation
from repro.service import messages as msg
from repro.service.server import ServiceConfig, TopKService
from repro.service.session import Session

PARENTS = (-1, 0, 0, 1, 1, 2, 5)
TTL = 60.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _open(service, topology_id):
    return service.open_session(
        msg.OpenSession(
            topology_id=topology_id, k=2, planner="greedy", budget_mj=60.0
        )
    )


def _close(service, session_id):
    service.handle(msg.CloseSession(session_id=session_id))


def _feed(service, session_id, seed=0):
    readings = tuple(np.random.default_rng(seed).normal(25, 3, len(PARENTS)))
    service.handle(msg.FeedSample(session_id=session_id, readings=readings))


@pytest.fixture
def inspected(monkeypatch):
    """Counts every Session state check the service makes."""
    counts = {"expire_if_idle": 0, "is_open": 0}
    expire_if_idle = Session.expire_if_idle
    is_open = Session.is_open.fget

    def counting_expire(self, now, ttl_s):
        counts["expire_if_idle"] += 1
        return expire_if_idle(self, now, ttl_s)

    def counting_is_open(self):
        counts["is_open"] += 1
        return is_open(self)

    monkeypatch.setattr(Session, "expire_if_idle", counting_expire)
    monkeypatch.setattr(Session, "is_open", property(counting_is_open))
    return counts


def test_lookup_touches_one_session_after_5000_closed(inspected):
    clock = FakeClock()
    service = TopKService(
        ServiceConfig(max_sessions=4, session_ttl_s=TTL), clock=clock
    )
    topology_id = service.register_topology(PARENTS)
    for __ in range(5000):
        clock.now += 0.001
        _close(service, _open(service, topology_id).session_id)
    live = _open(service, topology_id)
    assert service.open_sessions == 1

    inspected.update(expire_if_idle=0, is_open=0)
    assert service.session(live.session_id) is live
    # one idle check of the front (and only) open session, no scan
    assert inspected["expire_if_idle"] <= 1
    assert inspected["is_open"] <= 1

    inspected.update(expire_if_idle=0, is_open=0)
    _feed(service, live.session_id)
    assert inspected["expire_if_idle"] <= 1
    assert inspected["is_open"] <= 1

    inspected.update(expire_if_idle=0, is_open=0)
    second = _open(service, topology_id)  # admission: a live count
    assert inspected["expire_if_idle"] <= 1
    assert inspected["is_open"] <= 1
    assert service.open_sessions == 2
    _close(service, second.session_id)
    assert service.open_sessions == 1


def test_expiry_costs_one_check_per_expired_session(inspected):
    clock = FakeClock()
    service = TopKService(
        ServiceConfig(max_sessions=64, session_ttl_s=TTL), clock=clock
    )
    topology_id = service.register_topology(PARENTS)
    sessions = []
    for __ in range(40):
        clock.now += 1.0
        sessions.append(_open(service, topology_id))
    clock.now = 10.0 + TTL + 0.5  # the first 10 are past the TTL
    inspected.update(expire_if_idle=0)
    assert service.open_sessions == 40  # a count, not an expiry pass
    service.handle(msg.GetStats())
    assert [s.state for s in sessions] == ["expired"] * 10 + ["open"] * 30
    # ten expiries plus the one live session that stopped the pass
    assert inspected["expire_if_idle"] == 11
    assert service.open_sessions == 30


def test_instrumented_expiry_records_its_counter_and_event():
    clock = FakeClock()
    obs = Instrumentation()
    service = TopKService(
        ServiceConfig(session_ttl_s=TTL), clock=clock, instrumentation=obs
    )
    topology_id = service.register_topology(PARENTS)
    idle = _open(service, topology_id)
    clock.now = TTL + 1.0
    live = _open(service, topology_id)  # the admission pass expires idle
    assert (idle.state, live.state) == ("expired", "open")
    # one occurrence, one counter: the event's own
    assert obs.metrics.counters["events.session_expired"].value == 1
    assert "service.sessions_expired" not in obs.metrics.counters
    (instant,) = obs.spans.find("session_expired")
    assert instant.duration_s == 0.0
    assert instant.attributes == {
        "session_id": idle.session_id, "idle_s": TTL + 1.0,
    }


def _expired(sessions):
    return {s.session_id for s in sessions if s.state == "expired"}


@pytest.mark.parametrize("seed", range(6))
def test_each_expiry_equals_the_full_scan(seed):
    """Random opens, uses, closes and clock steps: after every call the
    sessions the service expired are exactly those the full scan over
    every open session would have expired at that call's clock."""
    rng = random.Random(seed)
    clock = FakeClock()
    service = TopKService(
        ServiceConfig(max_sessions=12, session_ttl_s=TTL), clock=clock
    )
    topology_id = service.register_topology(PARENTS)
    sessions: list[Session] = []
    for step in range(300):
        clock.now += rng.choice([0.0, 0.5, 5.0, 20.0, 45.0])
        due = {
            s.session_id
            for s in sessions
            if s.state == "open" and clock.now - s.last_used > TTL
        }
        before = _expired(sessions)
        live = [s for s in sessions if s.state == "open"]
        action = rng.random()
        try:
            if action < 0.3 or not live:
                if len(live) - len(due) < 12:
                    sessions.append(_open(service, topology_id))
                else:
                    service.handle(msg.GetStats())
            elif action < 0.85:
                _feed(service, rng.choice(live).session_id, seed=step)
            elif action < 0.95:
                _close(service, rng.choice(live).session_id)
            else:
                service.handle(msg.GetStats())
        except SessionError:
            pass  # the chosen session was due: this call expired it
        assert _expired(sessions) - before == due
        assert service.open_sessions == sum(
            1 for s in sessions if s.state == "open"
        )
    assert _expired(sessions)  # the walk did exercise expiry
