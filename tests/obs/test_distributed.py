"""Distributed observability: trace contexts, the telemetry
aggregator's merged views, and the live HTTP surfaces."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Instrumentation,
    LocalTelemetrySource,
    SlowRequestLog,
    TelemetryAggregator,
    TelemetryServer,
    TraceContext,
    adopt_trace,
    inherited_trace_id,
    new_trace_id,
    render_top,
)
from repro.obs.distributed import REQUEST_LATENCY_METRIC


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- trace context ----------------------------------------------------------


class TestTraceContext:
    def test_rejects_zero_trace_id(self):
        with pytest.raises(ObservabilityError):
            TraceContext(trace_id=0)

    @pytest.mark.parametrize("bad", [-1, 1 << 64, 1.5, "7", None])
    def test_rejects_non_u64_fields(self, bad):
        with pytest.raises(ObservabilityError):
            TraceContext(trace_id=bad)

    def test_new_trace_ids_are_nonzero_u64(self):
        ids = {new_trace_id() for __ in range(64)}
        assert len(ids) == 64  # collisions astronomically unlikely
        assert all(0 < i <= (1 << 64) - 1 for i in ids)


class TestAdoptTrace:
    def test_outermost_span_mints_and_nested_spans_inherit(self):
        obs = Instrumentation()
        with obs.span("client.request") as outer:
            ctx = adopt_trace(obs, outer)
            with obs.span("client.submit") as inner:
                nested = adopt_trace(obs, inner)
        assert ctx.trace_id == nested.trace_id
        assert nested.parent_span_id == inner.span_id
        assert outer.attributes["trace_id"] == ctx.trace_id

    def test_disabled_instrumentation_is_a_noop(self):
        from repro.obs import NULL_SPAN

        assert adopt_trace(None, NULL_SPAN) is None
        assert inherited_trace_id(None) is None

    def test_sibling_requests_get_distinct_traces(self):
        obs = Instrumentation()
        contexts = []
        for __ in range(2):
            with obs.span("client.request") as span:
                contexts.append(adopt_trace(obs, span))
        assert contexts[0].trace_id != contexts[1].trace_id


# -- slow-request exemplars -------------------------------------------------


def _finished_span(obs, duration, clock, name="service.request"):
    with obs.span(name) as span:
        clock.advance(duration)
    return span


class TestSlowRequestLog:
    def test_keeps_the_slowest_n(self):
        clock = FakeClock()
        obs = Instrumentation(clock=clock)
        log = SlowRequestLog(capacity=3)
        for duration in (0.1, 0.5, 0.2, 0.9, 0.05, 0.3):
            log.offer(_finished_span(obs, duration, clock))
        rows = log.to_dicts()
        assert [r["duration_s"] for r in rows] == pytest.approx(
            [0.9, 0.5, 0.3]
        )
        assert all(r["span"]["name"] == "service.request" for r in rows)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ObservabilityError):
            SlowRequestLog(capacity=0)

    def test_ignores_null_and_open_spans(self):
        from repro.obs import NULL_SPAN

        log = SlowRequestLog()
        log.offer(NULL_SPAN)
        obs = Instrumentation()
        span = obs.spans.span("open")  # never finished
        log.offer(span)
        assert len(log) == 0


# -- aggregation ------------------------------------------------------------


def _snapshot(shard, *, ts, requests, durations=(), clock=None, obs=None):
    """A minimal telemetry snapshot like TopKService emits."""
    obs = obs or Instrumentation(clock=clock)
    hist = obs.histogram(REQUEST_LATENCY_METRIC)
    for value in durations:
        hist.observe(value)
    return {
        "shard": shard,
        "ts": ts,
        "uptime_s": ts,
        "requests_handled": requests,
        "sessions_open": 1,
        "cache": {"hits": 3, "misses": 1},
        "energy_mj": 2.0,
        "metrics": obs.metrics.to_dict(),
        "spans": obs.spans.to_dict(),
        "exemplars": [],
    }


class TestTelemetryAggregator:
    def test_qps_from_successive_snapshot_deltas(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("0", ts=10.0, requests=100))
        agg.ingest(_snapshot("0", ts=20.0, requests=300))
        assert agg.qps("0") == pytest.approx(20.0)
        agg.ingest(_snapshot("1", ts=20.0, requests=40))
        # single snapshot: falls back to requests / uptime
        assert agg.qps("1") == pytest.approx(2.0)
        assert agg.fleet_qps() == pytest.approx(22.0)

    def test_fleet_histogram_merges_shards_exactly(self):
        agg = TelemetryAggregator()
        agg.ingest(
            _snapshot("0", ts=1.0, requests=3, durations=[0.01, 0.02, 0.03])
        )
        agg.ingest(
            _snapshot("1", ts=1.0, requests=2, durations=[0.5, 1.0])
        )
        fleet = agg.fleet_histogram(REQUEST_LATENCY_METRIC)
        assert fleet.count == 5
        assert fleet.min == pytest.approx(0.01)
        assert fleet.max == pytest.approx(1.0)
        # the p99 must land in the slow shard's territory
        assert fleet.quantile(99) > 0.4

    def test_top_rows_have_shard_and_fleet_lines(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("0", ts=5.0, requests=10, durations=[0.01]))
        agg.ingest(_snapshot("1", ts=5.0, requests=30, durations=[0.02]))
        rows = agg.top_rows()
        assert [r["shard"] for r in rows] == ["0", "1", "fleet"]
        fleet = rows[-1]
        assert fleet["requests"] == 40
        assert fleet["cache_hit_pct"] == pytest.approx(75.0)
        assert fleet["p99_ms"] is not None

    def test_exemplars_are_tagged_and_sorted(self):
        agg = TelemetryAggregator()
        slow = _snapshot("1", ts=1.0, requests=1)
        slow["exemplars"] = [{"duration_s": 0.9, "span": {"name": "a"}}]
        fast = _snapshot("0", ts=1.0, requests=1)
        fast["exemplars"] = [{"duration_s": 0.1, "span": {"name": "b"}}]
        agg.ingest(slow)
        agg.ingest(fast)
        rows = agg.exemplars()
        assert [r["shard"] for r in rows] == ["1", "0"]
        assert rows[0]["duration_s"] == 0.9

    def test_prometheus_exposition_has_per_shard_gauges(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("0", ts=4.0, requests=8, durations=[0.01] * 5))
        text = agg.prometheus()
        assert '# TYPE repro_shard_qps gauge' in text
        assert 'repro_shard_qps{shard="0"} 2.0' in text
        assert 'repro_shard_p99_seconds{shard="0"}' in text
        assert 'repro_service_request_seconds{quantile="0.99"}' in text
        assert 'repro_service_request_seconds_count 5' in text

    def test_chrome_trace_merges_lanes_and_propagates_trace_ids(self):
        clock = FakeClock(100.0)
        client = Instrumentation(clock=clock)
        with client.span("client.request") as span:
            ctx = adopt_trace(client, span)
            clock.advance(0.5)
        worker = Instrumentation(clock=clock)
        with worker.span("service.request", trace_id=ctx.trace_id):
            with worker.span("solve"):
                clock.advance(0.25)
        agg = TelemetryAggregator()
        snapshot = _snapshot("2", ts=1.0, requests=1, obs=worker)
        agg.ingest(snapshot)
        doc = agg.chrome_trace(client=client)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"client", "shard 2"}
        stitched = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X"
            and e.get("args", {}).get("trace_id") == ctx.trace_id
        ]
        # the un-annotated "solve" child inherits the root's trace id
        assert {e["name"] for e in stitched} == {
            "client.request", "service.request", "solve"
        }
        assert {e["pid"] for e in stitched} == {1, 2}
        assert all(e["ts"] >= 0 for e in stitched)


class TestRenderTop:
    def test_renders_aligned_rows_with_dashes_for_missing(self):
        rows = [
            {"shard": "0", "qps": 12.5, "p50_ms": 1.0, "p99_ms": 9.0,
             "requests": 100, "sessions": 2, "cache_hit_pct": 50.0,
             "energy_mj": 1.5, "dropped_spans": 0},
            {"shard": "fleet", "qps": 12.5, "p50_ms": None, "p99_ms": None,
             "requests": 100, "sessions": 2, "cache_hit_pct": None,
             "energy_mj": 1.5, "dropped_spans": 0},
        ]
        text = render_top(rows)
        lines = text.splitlines()
        assert "qps" in lines[0] and "p99(ms)" in lines[0]
        assert len({len(line) for line in lines}) == 1  # aligned
        assert lines[-1].strip().startswith("fleet")
        assert " - " in lines[-1] or lines[-1].rstrip().endswith("-")


# -- HTTP surface -----------------------------------------------------------


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        err.close()  # the error carries the response and its socket
        raise


class TestTelemetryServer:
    @pytest.fixture()
    def live(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("0", ts=2.0, requests=4, durations=[0.01]))
        with TelemetryServer(lambda: agg) as server:
            yield server

    def test_metrics_route_serves_prometheus(self, live):
        status, body = _get(live.url("/metrics"))
        assert status == 200
        assert b"repro_shard_qps" in body

    def test_json_route_serves_dashboard_rows(self, live):
        status, body = _get(live.url("/json"))
        assert status == 200
        payload = json.loads(body)
        assert payload["shards"] == ["0"]
        assert payload["rows"][-1]["shard"] == "fleet"

    def test_trace_route_serves_chrome_json(self, live):
        status, body = _get(live.url("/trace"))
        assert status == 200
        assert "traceEvents" in json.loads(body)

    def test_exemplars_route_serves_list(self, live):
        status, body = _get(live.url("/exemplars"))
        assert status == 200
        assert isinstance(json.loads(body), list)

    def test_unknown_route_is_404(self, live):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live.url("/nope"))
        assert excinfo.value.code == 404

    def test_collect_failure_is_a_500_not_a_crash(self):
        def explode():
            raise RuntimeError("backend gone")

        with TelemetryServer(explode) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url("/json"))
            assert excinfo.value.code == 500
            # and the server thread survived to answer again
            with pytest.raises(urllib.error.HTTPError):
                _get(server.url("/metrics"))


class TestLocalTelemetrySource:
    def test_snapshots_one_service_as_shard_zero(self):
        from repro.service.server import TopKService

        service = TopKService(instrumentation=Instrumentation())
        source = LocalTelemetrySource(service)
        agg = source()
        assert agg.shards == ["0"]
        assert agg.snapshot("0")["requests_handled"] == 0
