"""Tests for the Chrome-trace / Prometheus / flame exporters."""

import json

import pytest

from repro.obs import (
    Instrumentation,
    TelemetryAggregator,
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    render_flame,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def traced_run() -> tuple[Instrumentation, FakeClock]:
    clock = FakeClock(100.0)
    obs = Instrumentation(clock=clock)
    with obs.span("run", epochs=2):
        clock.advance(0.010)
        with obs.span("plan", planner="lp-lf"):
            clock.advance(0.030)
        obs.event("plan_installed", planner="lp-lf", cost=1.5)
        with obs.span("collect"):
            clock.advance(0.060)
    return obs, clock


class TestChromeTrace:
    def test_document_shape(self):
        obs, __ = traced_run()
        doc = chrome_trace(obs)
        assert doc["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_spans_become_relative_complete_events(self):
        obs, __ = traced_run()
        events = {
            e["name"]: e
            for e in chrome_trace(obs)["traceEvents"]
            if e["ph"] == "X"
        }
        # timestamps are microseconds relative to the earliest span
        assert events["run"]["ts"] == pytest.approx(0.0)
        assert events["run"]["dur"] == pytest.approx(100_000.0)
        assert events["plan"]["ts"] == pytest.approx(10_000.0)
        assert events["plan"]["dur"] == pytest.approx(30_000.0)
        assert events["collect"]["ts"] == pytest.approx(40_000.0)
        (plan,) = obs.spans.find("plan")
        assert events["plan"]["args"] == {
            "planner": "lp-lf", "span_id": plan.span_id,
        }
        assert all(e["pid"] == 1 and e["tid"] == 1 for e in events.values())

    def test_instant_event_is_a_zero_length_complete_event(self):
        obs, __ = traced_run()
        instant = next(
            e for e in chrome_trace(obs)["traceEvents"]
            if e["name"] == "plan_installed"
        )
        assert instant["ph"] == "X"
        assert instant["dur"] == 0.0
        assert instant["ts"] == pytest.approx(40_000.0)
        assert instant["args"]["planner"] == "lp-lf"
        assert instant["args"]["cost"] == 1.5

    def test_json_form_parses(self):
        obs, __ = traced_run()
        doc = json.loads(chrome_trace_json(obs))
        assert doc["traceEvents"][0] == {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro"},
        }

    def test_empty_instrumentation_exports(self):
        doc = chrome_trace(Instrumentation())
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]

    def test_one_writer_for_a_run_and_the_fleet_client_lane(self):
        clock = FakeClock(5.0)
        obs = Instrumentation(clock=clock)
        with obs.span("client.query", trace_id=77):
            clock.advance(0.001)
            with obs.span("service.request", kind="SubmitQuery"):
                clock.advance(0.002)
                obs.event("session_expired", session_id=4, idle_s=1.0)
                with obs.span("collect", messages=3):
                    clock.advance(0.004)
        with obs.span("epoch", index=2):
            clock.advance(0.003)
        own = chrome_trace(obs)["traceEvents"]
        assert own[0]["ph"] == "M"
        fleet = TelemetryAggregator().chrome_trace(client=obs)["traceEvents"]
        assert fleet[0] == {**own[0], "args": {"name": "client"}}
        assert own[1:] == fleet[1:]
        names = [e["name"] for e in own[1:]]
        assert names == [
            "client.query", "service.request", "session_expired",
            "collect", "epoch",
        ]
        # the trace id is inherited by the nested spans, the instant too
        assert [e["args"].get("trace_id") for e in own[1:]] == [
            77, 77, 77, 77, None,
        ]
        instant = own[3]
        assert (instant["ph"], instant["dur"]) == ("X", 0.0)


class TestPrometheusText:
    def test_counters_gauges_and_summaries(self):
        obs = Instrumentation()
        obs.counter("lp.solves").inc(3)
        obs.gauge("plan.static_cost_mj.lp-lf").set(12.5)
        hist = obs.histogram("lp.solve_seconds.prospector-lp-lf")
        for value in (0.25, 0.5, 0.25):
            hist.observe(value)
        text = prometheus_text(obs)
        assert "# TYPE repro_lp_solves_total counter" in text
        assert "repro_lp_solves_total 3.0" in text
        assert "# TYPE repro_plan_static_cost_mj_lp_lf gauge" in text
        assert "repro_plan_static_cost_mj_lp_lf 12.5" in text
        metric = "repro_lp_solve_seconds_prospector_lp_lf"
        assert f"# TYPE {metric} summary" in text
        # quantiles are order statistics of rank floor(q * (count - 1)),
        # here all the 0.25 observation (exact after the [min, max] clamp)
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'{metric}{{quantile="{quantile}"}} 0.25\n' in text
        assert f"{metric}_sum 1.0" in text
        assert f"{metric}_count 3" in text
        assert text.endswith("\n")

    def test_names_are_sanitized(self):
        obs = Instrumentation()
        obs.counter("9-weird metric!").inc()
        text = prometheus_text(obs, prefix="")
        assert "_9_weird_metric__total 1.0" in text

    def test_output_is_sorted_and_diff_stable(self):
        obs = Instrumentation()
        obs.counter("zeta").inc()
        obs.counter("alpha").inc()
        text = prometheus_text(obs)
        assert text.index("repro_alpha_total") < text.index("repro_zeta_total")

    def test_empty_registry_is_empty_string(self):
        assert prometheus_text(Instrumentation()) == ""


class TestRenderFlame:
    def test_tree_with_shares_and_bars(self):
        obs, __ = traced_run()
        text = render_flame(obs)
        lines = text.splitlines()
        assert lines[0].startswith("run (epochs=2)")
        assert "100.0%" in lines[0]
        assert "|- plan (planner=lp-lf)" in lines[1]
        assert "30.0%" in lines[1]
        assert "|- plan_installed (planner=lp-lf, cost=1.5)" in lines[2]
        assert lines[2].rstrip().endswith("0us   0.0%")  # an instant: no bar
        assert "`- collect" in lines[3]
        assert "60.0%" in lines[3]
        assert "#" in lines[1]

    def test_no_spans_placeholder(self):
        assert render_flame(Instrumentation()) == "(no spans recorded)"

    def test_dropped_footer(self):
        clock = FakeClock()
        obs = Instrumentation(clock=clock, span_capacity=1)
        with obs.span("kept"):
            clock.advance(1.0)
        with obs.span("lost"):
            pass
        assert "dropped 1 of 2 spans" in render_flame(obs)

    def test_duration_units(self):
        clock = FakeClock()
        obs = Instrumentation(clock=clock)
        with obs.span("slow"):
            clock.advance(2.5)
        with obs.span("fast"):
            clock.advance(0.0005)
        text = render_flame(obs)
        assert "2.500s" in text
        assert "500us" in text
