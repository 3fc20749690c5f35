"""Tests for hierarchical span tracing (repro.obs.spans)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import NULL_SPAN, Instrumentation, Span, SpanTracer, maybe_span


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTiming:
    def test_exact_durations_under_fake_clock(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(0.25)
            clock.advance(0.5)
        assert outer.duration_s == pytest.approx(1.75)
        assert inner.duration_s == pytest.approx(0.25)
        assert outer.self_s() == pytest.approx(1.5)
        assert outer.finished and inner.finished

    def test_open_span_reports_elapsed_so_far(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(2.0)
            assert not span.finished
            assert span.duration_s == pytest.approx(2.0)

    def test_annotate_returns_span_and_overwrites(self):
        tracer = SpanTracer(clock=FakeClock())
        span = tracer.span("s", mode="cold")
        assert span.annotate(mode="warm", pivots=3) is span
        assert span.attributes == {"mode": "warm", "pivots": 3}


class TestNesting:
    def test_nesting_follows_lexical_structure_across_helpers(self):
        # a "solve" opened by a helper while "plan" is open becomes its
        # child, because both hang off the same Instrumentation
        obs = Instrumentation(clock=FakeClock())

        def helper():
            with obs.span("solve", backend="scipy-highs"):
                pass

        with obs.span("plan", planner="lp-lf"):
            helper()
            helper()
        (root,) = obs.spans.roots
        assert root.name == "plan"
        assert [child.name for child in root.children] == ["solve", "solve"]

    def test_sequential_roots_stay_separate(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [root.name for root in tracer.roots] == ["a", "b"]
        assert tracer.current is None

    def test_current_and_find_and_walk(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("plan"):
            with tracer.span("solve") as solve:
                assert tracer.current is solve
            with tracer.span("solve"):
                pass
        assert len(tracer.find("solve")) == 2
        assert [depth for __, depth in tracer.walk()] == [0, 1, 1]
        assert len(tracer) == 3

    def test_error_exit_annotates_exception_type(self):
        tracer = SpanTracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        assert span.attributes["error"] == "ValueError"
        assert span.finished

    def test_out_of_order_exit_is_tolerated(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        clock.advance(1.0)
        outer.__exit__(None, None, None)  # exits through inner
        assert tracer.current is None
        assert outer.duration_s == pytest.approx(1.0)

    def test_concurrent_threads_open_separate_roots(self):
        # two connection threads of one worker each handle a request
        # while the other's is still open: neither nests under the other
        obs = Instrumentation(span_mode="ring")
        a_open = threading.Event()
        b_done = threading.Event()
        seen = {}

        def thread_a():
            with obs.span("service.request", conn="a"):
                a_open.set()
                b_done.wait(5.0)
                with obs.span("solve"):
                    pass

        def thread_b():
            a_open.wait(5.0)
            with obs.span("service.request", conn="b"):
                seen["b_open"] = obs.spans.open_spans
            b_done.set()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert a_open.is_set() and b_done.is_set()
        assert sorted(root.attributes["conn"] for root in obs.spans.roots) \
            == ["a", "b"]
        by_conn = {root.attributes["conn"]: root for root in obs.spans.roots}
        assert [c.name for c in by_conn["a"].children] == ["solve"]
        assert by_conn["b"].children == []
        assert [s.attributes["conn"] for s in seen["b_open"]] == ["b"]
        assert obs.spans.current is None


class TestCapacity:
    def test_capacity_drops_but_still_times(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock, capacity=2)
        kept = []
        for name in ("a", "b", "c"):
            with tracer.span(name) as span:
                clock.advance(1.0)
            kept.append(span)
        assert tracer.retained == 2
        assert tracer.dropped == 1
        assert tracer.total_recorded == 3
        assert [root.name for root in tracer.roots] == ["a", "b"]
        # the dropped span still timed its region
        assert kept[2].duration_s == pytest.approx(1.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="capacity"):
            SpanTracer(capacity=0)


class TestNullSpan:
    def test_maybe_span_none_returns_shared_singleton(self):
        assert maybe_span(None, "anything", a=1) is NULL_SPAN
        assert maybe_span(None, "other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with maybe_span(None, "x") as span:
            assert span is NULL_SPAN
            assert span.annotate(hit=True) is NULL_SPAN
        assert NULL_SPAN.duration_s == 0.0
        assert NULL_SPAN.self_s() == 0.0
        assert NULL_SPAN.attributes == {}

    def test_maybe_span_with_instrumentation_records(self):
        obs = Instrumentation(clock=FakeClock())
        with maybe_span(obs, "region", tag=1):
            pass
        (root,) = obs.spans.roots
        assert root.name == "region"
        assert root.attributes == {"tag": 1}


class TestSerialization:
    def populated(self) -> SpanTracer:
        clock = FakeClock()
        tracer = SpanTracer(clock=clock, capacity=3)
        with tracer.span("run", epochs=2):
            clock.advance(0.5)
            with tracer.span("collect"):
                clock.advance(0.25)
            with tracer.span("filter"):
                with tracer.span("beyond-capacity"):  # the 4th: dropped
                    pass
        return tracer

    def test_round_trip_preserves_tree(self):
        tracer = self.populated()
        restored = SpanTracer.from_dict(tracer.to_dict())
        assert restored.to_dict() == tracer.to_dict()
        assert restored.retained == tracer.retained
        assert restored.dropped == tracer.dropped
        (root,) = restored.roots
        assert root.name == "run"
        assert root.attributes == {"epochs": 2}
        assert root.children[0].duration_s == pytest.approx(0.25)

    def test_restored_span_cannot_be_reentered(self):
        restored = SpanTracer.from_dict(self.populated().to_dict())
        with pytest.raises(ObservabilityError, match="detached"):
            with restored.roots[0]:
                pass

    def test_open_span_serializes_with_null_end(self):
        tracer = SpanTracer(clock=FakeClock())
        span = tracer.span("open")
        span.__enter__()
        dump = tracer.to_dict()
        assert dump["roots"][0]["end_s"] is None
        restored = SpanTracer.from_dict(dump)
        assert not restored.roots[0].finished

    def test_malformed_dump_raises(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            Span.from_dict({"start_s": 0.0})
        with pytest.raises(ObservabilityError, match="malformed"):
            SpanTracer.from_dict({"roots": [{"name": "x"}]})


class TestRingMode:
    """Bounded tracing for long-lived services: keep the newest
    finished trees, count what was evicted."""

    def test_rejects_unknown_mode(self):
        with pytest.raises(ObservabilityError):
            SpanTracer(mode="circular")

    def test_evicts_oldest_finished_roots_and_counts_spans(self):
        tracer = SpanTracer(clock=FakeClock(), capacity=4, mode="ring")
        for i in range(8):
            with tracer.span(f"req{i}"):
                pass
        assert [root.name for root in tracer.roots] == [
            "req4", "req5", "req6", "req7"
        ]
        assert tracer.retained == 4
        assert tracer.dropped == 4

    def test_eviction_counts_whole_subtrees(self):
        tracer = SpanTracer(clock=FakeClock(), capacity=3, mode="ring")
        with tracer.span("first"):
            with tracer.span("child"):
                pass
        with tracer.span("second"):
            pass
        with tracer.span("third"):  # evicts "first" (2 spans)
            pass
        assert [root.name for root in tracer.roots] == ["second", "third"]
        assert tracer.dropped == 2
        assert tracer.retained == 2

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(st.integers(min_value=0, max_value=4), max_size=40),
        capacity=st.integers(min_value=1, max_value=7),
    )
    def test_eviction_reads_recorded_tree_sizes(self, shapes, capacity):
        """Each root counts its tree as spans attach, so ring eviction
        never walks a tree; the counts still equal what a walk finds."""
        tracer = SpanTracer(clock=FakeClock(), capacity=capacity, mode="ring")

        def unwalkable(span, depth=0):
            raise AssertionError("ring eviction walked a span tree")

        original = Span.walk
        Span.walk = unwalkable
        try:
            for depth in shapes:  # one request tree per entry
                spans = [tracer.span(f"d{level}") for level in range(depth + 1)]
                for span in spans:
                    span.__enter__()
                for span in reversed(spans):
                    span.__exit__(None, None, None)
        finally:
            Span.walk = original
        walked = sum(1 for __ in tracer.walk())
        assert tracer.retained == walked <= capacity
        assert tracer.retained + tracer.dropped == sum(d + 1 for d in shapes)

    def test_never_evicts_the_open_root_it_is_nested_under(self):
        tracer = SpanTracer(clock=FakeClock(), capacity=1, mode="ring")
        with tracer.span("outer"):
            # outer is open and at capacity: it cannot be evicted, so
            # the nested span falls back to block-mode dropping
            with tracer.span("inner"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert root.children == [] or root.children == ()
        assert tracer.dropped == 1
        assert root.finished  # the drop never corrupted the stack

    def test_block_mode_still_drops_newest(self):
        tracer = SpanTracer(clock=FakeClock(), capacity=2, mode="block")
        for i in range(4):
            with tracer.span(f"req{i}"):
                pass
        assert [root.name for root in tracer.roots] == ["req0", "req1"]
        assert tracer.dropped == 2

    def test_mode_and_span_ids_round_trip_through_dump(self):
        tracer = SpanTracer(clock=FakeClock(), capacity=8, mode="ring")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        dump = tracer.to_dict()
        assert dump["mode"] == "ring"
        restored = SpanTracer.from_dict(dump)
        assert restored.mode == "ring"
        assert restored.to_dict() == dump
        # restored tracer keeps minting ids above what it loaded
        with restored.span("c") as span:
            pass
        all_ids = [span.span_id for root in restored.roots
                   for span, __ in root.walk()]
        assert len(set(all_ids)) == len(all_ids)

    def test_span_ids_are_unique_and_stable_in_dumps(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        assert a.span_id != b.span_id
        dump = tracer.to_dict()
        assert dump["roots"][0]["span_id"] == a.span_id
        assert dump["roots"][0]["children"][0]["span_id"] == b.span_id

    def test_instrumentation_passes_span_mode_through(self):
        obs = Instrumentation(span_mode="ring", span_capacity=2)
        for i in range(5):
            with obs.span(f"req{i}"):
                pass
        assert obs.spans.mode == "ring"
        assert obs.spans.dropped == 3
