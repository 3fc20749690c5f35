"""Unit tests for the typed event trace ring buffer."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import EVENT_KINDS, EventTrace, Instrumentation


class TestRecording:
    def test_records_in_order_with_sequence(self):
        trace = EventTrace()
        trace.record("lp_solve", model="a")
        trace.record("plan_built", planner="greedy")
        assert trace.kinds() == ["lp_solve", "plan_built"]
        assert [event.seq for event in trace] == [0, 1]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ObservabilityError, match="unknown event kind"):
            EventTrace().record("made_up_kind")

    def test_every_documented_kind_is_accepted(self):
        trace = EventTrace()
        for kind in EVENT_KINDS:
            trace.record(kind)
        assert trace.kinds() == list(EVENT_KINDS)

    def test_filter_by_kind(self):
        trace = EventTrace()
        trace.record("lp_solve", model="a")
        trace.record("plan_installed", reason="x")
        trace.record("lp_solve", model="b")
        models = [event.data["model"] for event in trace.events("lp_solve")]
        assert models == ["a", "b"]

    def test_counts(self):
        trace = EventTrace()
        trace.record("lp_solve")
        trace.record("lp_solve")
        trace.record("plan_built")
        assert trace.counts() == {"lp_solve": 2, "plan_built": 1}


class TestRingBuffer:
    def test_eviction_keeps_newest(self):
        trace = EventTrace(capacity=3)
        for i in range(5):
            trace.record("lp_solve", index=i)
        assert len(trace) == 3
        assert [event.data["index"] for event in trace] == [2, 3, 4]
        assert trace.dropped == 2
        assert trace.total_recorded == 5

    def test_capacity_one(self):
        trace = EventTrace(capacity=1)
        trace.record("lp_solve", index=0)
        trace.record("plan_built", index=1)
        assert trace.kinds() == ["plan_built"]
        assert trace.dropped == 1

    def test_invalid_capacity(self):
        with pytest.raises(ObservabilityError):
            EventTrace(capacity=0)

    def test_round_trip_preserves_eviction_accounting(self):
        trace = EventTrace(capacity=2)
        for i in range(4):
            trace.record("lp_solve", index=i)
        restored = EventTrace.from_dict(trace.to_dict())
        assert restored.dropped == 2
        assert [event.data["index"] for event in restored] == [2, 3]


class TestInstrumentationEvents:
    def test_event_bumps_counter_and_trace(self):
        obs = Instrumentation()
        obs.event("replan_skipped", threshold=1.0)
        assert obs.metrics.counter("events.replan_skipped").value == 1
        assert obs.trace.kinds() == ["replan_skipped"]

    def test_trace_capacity_is_configurable(self):
        obs = Instrumentation(trace_capacity=2)
        for __ in range(3):
            obs.event("lp_solve")
        assert len(obs.trace) == 2
        assert obs.trace.dropped == 1
