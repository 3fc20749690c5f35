"""Unit tests for instant events: ``Instrumentation.event`` records one
occurrence as a zero-length span plus its ``events.<kind>`` counter."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import EVENT_KINDS, Instrumentation, from_json, to_json


class FakeClock:
    def __init__(self) -> None:
        self.now = 10.0

    def __call__(self) -> float:
        self.now += 0.5  # every reading moves, so a zero length is exact
        return self.now


class TestRecording:
    def test_records_in_order_with_sequence(self):
        obs = Instrumentation()
        first = obs.event("plan_installed", reason="initial")
        second = obs.event("audit_run", estimated_accuracy=1.0)
        assert [root.name for root in obs.spans.roots] == [
            "plan_installed", "audit_run",
        ]
        assert 0 < first.span_id < second.span_id

    def test_rejects_unknown_kind(self):
        obs = Instrumentation()
        # the kinds folded into span attributes and counters are gone
        for kind in ("made_up_kind", "lp_solve", "plan_built",
                     "replan_skipped", "sample_collected", "lp_batch"):
            with pytest.raises(ObservabilityError, match="unknown event kind"):
                obs.event(kind)
        assert len(obs.spans) == 0
        assert obs.metrics.counters == {}

    def test_every_documented_kind_is_accepted(self):
        obs = Instrumentation()
        for kind in EVENT_KINDS:
            obs.event(kind)
        assert [root.name for root in obs.spans.roots] == list(EVENT_KINDS)

    def test_filter_by_kind(self):
        obs = Instrumentation()
        obs.event("session_expired", session_id=1)
        obs.event("plan_installed", reason="x")
        obs.event("session_expired", session_id=2)
        sessions = [
            span.attributes["session_id"]
            for span in obs.spans.find("session_expired")
        ]
        assert sessions == [1, 2]

    def test_counts(self):
        obs = Instrumentation()
        obs.event("audit_run")
        obs.event("audit_run")
        obs.event("failure_observed")
        assert obs.metrics.counter("events.audit_run").value == 2
        assert obs.metrics.counter("events.failure_observed").value == 1

    def test_instant_is_zero_length_and_nests_under_the_open_span(self):
        clock = FakeClock()
        obs = Instrumentation(clock=clock)
        with obs.span("service.request") as request:
            instant = obs.event("session_expired", session_id=3, idle_s=9.0)
            assert obs.spans.current is request  # never left open
        assert request.children == [instant]
        assert instant.finished
        assert instant.duration_s == 0.0
        assert request.start_s < instant.start_s < request.end_s
        assert instant.attributes == {"session_id": 3, "idle_s": 9.0}


class TestRingBuffer:
    def test_eviction_keeps_newest(self):
        obs = Instrumentation(span_capacity=3, span_mode="ring")
        for i in range(5):
            obs.event("audit_run", index=i)
        assert len(obs.spans) == 3
        assert [r.attributes["index"] for r in obs.spans.roots] == [2, 3, 4]
        assert obs.spans.dropped == 2
        assert obs.spans.total_recorded == 5
        # the counter still counts every occurrence
        assert obs.metrics.counter("events.audit_run").value == 5

    def test_capacity_one(self):
        obs = Instrumentation(span_capacity=1, span_mode="ring")
        obs.event("audit_run", index=0)
        obs.event("plan_installed", index=1)
        assert [root.name for root in obs.spans.roots] == ["plan_installed"]
        assert obs.spans.dropped == 1

    def test_invalid_capacity(self):
        with pytest.raises(ObservabilityError):
            Instrumentation(span_capacity=0)

    def test_round_trip_preserves_eviction_accounting(self):
        obs = Instrumentation(span_capacity=2, span_mode="ring")
        for i in range(4):
            obs.event("audit_run", index=i)
        restored = from_json(to_json(obs))
        assert restored.spans.dropped == 2
        assert [
            root.attributes["index"] for root in restored.spans.roots
        ] == [2, 3]
        assert all(root.duration_s == 0.0 for root in restored.spans.roots)


class TestInstrumentationEvents:
    def test_event_bumps_counter_and_trace(self):
        obs = Instrumentation()
        obs.event("failure_observed", edge=4)
        assert obs.metrics.counter("events.failure_observed").value == 1
        (instant,) = obs.spans.roots
        assert instant.name == "failure_observed"
        assert instant.attributes == {"edge": 4}
