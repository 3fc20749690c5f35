"""The per-request telemetry budget of an instrumented service worker.

A warm ``SubmitQuery`` leaves one record per layer: the
``service.request`` span, which carries the collection's figures as
scalar attributes (no ``collect`` child), one request-latency
observation, the two wire-size observations and counters bound on
first use — no instant span and no metric resolved by name.  A warm ``FeedSample``
leaves its ``service.request`` span and the bound sample counters.
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
    for cid in range(16):  # install the plan, bind the records, fill the ring
        body = _frame(
            msg.SubmitQuery(
                session_id=opened.session_id, readings=_readings(cid)
            ),
            cid,
        )
        service.record_wire(len(body), len(service.handle_frame(body)))
    assert len(obs.spans) == obs.spans.capacity
    return service, opened.session_id


def _resolving_by_name(monkeypatch) -> list:
    """Record every metric the registry resolves by name from now on."""
    resolved = []
    for method in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, method)

        def by_name(self, name, _original=original):
            resolved.append(name)
            return _original(self, name)

        monkeypatch.setattr(MetricsRegistry, method, by_name)
    return resolved


def test_warm_submit_query_adds_one_record_per_layer(warm_worker, monkeypatch):
    service, session_id = warm_worker
    obs = service.instrumentation
    body = _frame(
        msg.SubmitQuery(session_id=session_id, readings=_readings(99)), 99
    )
    spans_before = obs.spans.total_recorded
    latency = obs.metrics.histograms[REQUEST_LATENCY_METRIC]
    latency_before = latency.count
    requests_before = obs.metrics.counters["service.requests"].value

    resolved = _resolving_by_name(monkeypatch)
    reply = service.handle_frame(body)
    service.record_wire(len(body), len(reply))
    monkeypatch.undo()

    assert isinstance(wire.decode_frame(reply[4:])[0], msg.QueryReply)
    assert resolved == []  # every metric was bound on an earlier request
    assert obs.spans.total_recorded - spans_before == 1
    assert len(obs.spans) <= obs.spans.capacity
    assert latency.count == latency_before + 1
    requests = obs.metrics.counters["service.requests"].value
    assert requests == requests_before + 1

    root = obs.spans.roots[-1]
    assert root.name == "service.request"
    assert root.children == []  # the collection is attributes, not a span
    assert list(root.attributes) == [
        "kind", "session",
        "label", "messages", "values", "retries", "energy_mj",
    ]
    assert all(
        isinstance(value, (str, int, float))
        for value in root.attributes.values()
    )
    assert root.attributes["label"] == "collection"
    reply = wire.decode_frame(reply[4:])[0]
    assert root.attributes["energy_mj"] == reply.energy_mj


def test_warm_feed_sample_adds_its_span_and_a_bound_counter(
    warm_worker, monkeypatch
):
    service, session_id = warm_worker
    obs = service.instrumentation
    body = _frame(
        msg.FeedSample(session_id=session_id, readings=_readings(98)), 98
    )
    service.handle_frame(body)  # bind the feed path's records
    spans_before = obs.spans.total_recorded
    fed = obs.metrics.counters["engine.samples.feed"]
    fed_before = fed.value
    total_before = obs.metrics.counters["engine.samples"].value
    events_before = {
        name: counter.value for name, counter in obs.metrics.counters.items()
        if name.startswith("events.")
    }

    resolved = _resolving_by_name(monkeypatch)
    reply = service.handle_frame(body)
    monkeypatch.undo()

    assert isinstance(wire.decode_frame(reply[4:])[0], msg.SampleAccepted)
    assert resolved == []
    assert obs.spans.total_recorded - spans_before == 1
    root = obs.spans.roots[-1]
    assert root.name == "service.request"
    assert root.children == []  # no instant span
    assert fed.value == fed_before + 1
    assert obs.metrics.counters["engine.samples"].value == total_before + 1
    assert {
        name: counter.value for name, counter in obs.metrics.counters.items()
        if name.startswith("events.")
    } == events_before


def test_collect_span_agrees_with_the_reply_and_counters(warm_worker):
    service, session_id = warm_worker
    obs = service.instrumentation
    energy_before = obs.metrics.counters["sim.energy_mj"].value
    messages_before = obs.metrics.counters["sim.messages"].value
    reply = service.handle(
        msg.SubmitQuery(session_id=session_id, readings=_readings(42))
    )
    request = obs.spans.roots[-1]
    assert request.name == "service.request"
    assert request.attributes["energy_mj"] == reply.energy_mj
    assert obs.metrics.counters["sim.energy_mj"].value == pytest.approx(
        energy_before + reply.energy_mj
    )
    assert obs.metrics.counters["sim.messages"].value == (
        messages_before + request.attributes["messages"]
    )


def test_batch_request_span_sums_its_collections(warm_worker):
    """A session's ledger makes ``SubmitBatch`` run one collection per
    row under its one request span, whose figures are their sums."""
    service, session_id = warm_worker
    obs = service.instrumentation
    messages_before = obs.metrics.counters["sim.messages"].value
    collections_before = obs.metrics.counters["sim.collections"].value
    rows = tuple(_readings(seed) for seed in (50, 51, 52))
    reply = service.handle(
        msg.SubmitBatch(session_id=session_id, readings=rows)
    )
    request = obs.spans.roots[-1]
    assert (request.name, request.children) == ("service.request", [])
    assert obs.metrics.counters["sim.collections"].value == (
        collections_before + len(rows)
    )
    assert request.attributes["messages"] == (
        obs.metrics.counters["sim.messages"].value - messages_before
    )
    assert request.attributes["energy_mj"] == pytest.approx(
        sum(reply.energies)
    )
