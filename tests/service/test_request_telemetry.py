"""The per-request telemetry budget of an instrumented service worker.

A warm ``SubmitQuery`` leaves one record per layer: the
``service.request`` span with its ``collect`` child (the collection's
figures as scalar attributes), one request-latency observation, the
two wire-size observations and counters bound on first use — no event
and no metric resolved by name.
"""

import numpy as np
import pytest

from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.distributed import REQUEST_LATENCY_METRIC
from repro.service import messages as msg
from repro.service import wire
from repro.service.server import TopKService

PARENTS = (-1, 0, 0, 1, 1, 2, 5, 6, 3)


def _readings(seed):
    return tuple(np.random.default_rng(seed).normal(25, 3, len(PARENTS)))


def _frame(request, cid):
    return wire.encode_frame(request, cid=cid)[4:]  # strip the length


@pytest.fixture
def warm_worker():
    """A worker-shaped service (ring-mode spans, already full) with one
    session whose plan is installed and whose records are bound."""
    obs = Instrumentation(span_mode="ring", span_capacity=8)
    service = TopKService(instrumentation=obs)
    topology_id = service.register_topology(PARENTS)
    opened = service.handle(
        msg.OpenSession(topology_id=topology_id, k=2, budget_mj=60.0)
    )
    for seed in range(4):
        service.handle(
            msg.FeedSample(
                session_id=opened.session_id, readings=_readings(seed)
            )
        )
    for cid in range(8):  # install the plan, bind the records, fill the ring
        body = _frame(
            msg.SubmitQuery(
                session_id=opened.session_id, readings=_readings(cid)
            ),
            cid,
        )
        service.record_wire(len(body), len(service.handle_frame(body)))
    assert len(obs.spans) == obs.spans.capacity
    return service, opened.session_id


def test_warm_submit_query_adds_one_record_per_layer(warm_worker, monkeypatch):
    service, session_id = warm_worker
    obs = service.instrumentation
    body = _frame(
        msg.SubmitQuery(session_id=session_id, readings=_readings(99)), 99
    )
    spans_before = obs.spans.total_recorded
    events_before = obs.trace.total_recorded
    latency = obs.metrics.histograms[REQUEST_LATENCY_METRIC]
    latency_before = latency.count
    requests_before = obs.metrics.counters["service.requests"].value

    resolved = []
    for method in ("counter", "gauge", "histogram", "timer"):
        original = getattr(MetricsRegistry, method)

        def by_name(self, name, _original=original):
            resolved.append(name)
            return _original(self, name)

        monkeypatch.setattr(MetricsRegistry, method, by_name)

    reply = service.handle_frame(body)
    service.record_wire(len(body), len(reply))
    monkeypatch.undo()

    assert isinstance(wire.decode_frame(reply[4:])[0], msg.QueryReply)
    assert resolved == []  # every metric was bound on an earlier request
    assert obs.trace.total_recorded == events_before
    assert obs.spans.total_recorded - spans_before == 2
    assert len(obs.spans) <= obs.spans.capacity
    assert latency.count == latency_before + 1
    requests = obs.metrics.counters["service.requests"].value
    assert requests == requests_before + 1

    root = obs.spans.roots[-1]
    assert root.name == "service.request"
    (collect,) = root.children
    assert collect.name == "collect"
    assert list(collect.attributes) == [
        "label", "messages", "values", "retries", "energy_mj",
    ]
    assert all(
        isinstance(value, (str, int, float))
        for value in collect.attributes.values()
    )
    assert collect.attributes["label"] == "collection"


def test_collect_span_agrees_with_the_reply_and_counters(warm_worker):
    service, session_id = warm_worker
    obs = service.instrumentation
    energy_before = obs.metrics.counters["sim.energy_mj"].value
    messages_before = obs.metrics.counters["sim.messages"].value
    reply = service.handle(
        msg.SubmitQuery(session_id=session_id, readings=_readings(42))
    )
    collect = obs.spans.roots[-1].children[0]
    assert collect.attributes["energy_mj"] == reply.energy_mj
    assert obs.metrics.counters["sim.energy_mj"].value == pytest.approx(
        energy_before + reply.energy_mj
    )
    assert obs.metrics.counters["sim.messages"].value == (
        messages_before + collect.attributes["messages"]
    )
