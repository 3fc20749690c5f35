"""Tests for the ASCII/JSON reporters."""

from repro.obs import (
    Instrumentation,
    from_json,
    prometheus_text,
    render_flame,
    render_report,
    to_json,
)


def populated() -> Instrumentation:
    obs = Instrumentation(span_capacity=2)
    obs.counter("engine.queries").inc(7)
    obs.gauge("plan.static_cost_mj.lp-lf").set(12.5)
    obs.histogram("lp.solve_seconds.prospector-lp-lf").observe(0.02)
    for __ in range(3):
        obs.event("audit_run", estimated_accuracy=0.9)
    return obs


PARENT_FORMAT_DUMP = """{
  "metrics": {
    "counters": {"events.lp_solve": {"value": 1.0},
                 "lp.solves": {"value": 1.0}},
    "gauges": {"plan.static_cost_mj.lp-lf": {"value": 12.5}},
    "histograms": {"lp.solve_seconds.prospector-lp-lf": {
      "gamma": 1.02, "count": 1, "total": 0.02, "min": 0.02, "max": 0.02,
      "buckets": {"-197": 1}}}
  },
  "spans": {
    "capacity": 8192, "mode": "block", "dropped": 0,
    "roots": [{"name": "plan", "span_id": 1, "start_s": 1.0, "end_s": 1.5,
               "attributes": {"planner": "lp-lf"},
               "children": [{"name": "solve", "span_id": 2, "start_s": 1.1,
                             "end_s": 1.4, "attributes": {"model": "m"},
                             "children": []}]}]
  },
  "trace": {
    "capacity": 1024, "next_seq": 2,
    "events": [
      {"seq": 0, "kind": "lp_solve", "data": {"model": "m"}, "ts": 1.4},
      {"seq": 1, "kind": "plan_built", "data": {"planner": "lp-lf"},
       "ts": 1.5}
    ]
  }
}"""
"""A ``to_json`` dump written while the event trace still existed."""


class TestRender:
    def test_sections_and_names_present(self):
        text = render_report(populated(), title="demo")
        assert "demo" in text
        assert "counters" in text
        assert "engine.queries" in text
        assert "plan.static_cost_mj.lp-lf" in text
        assert "lp.solve_seconds.prospector-lp-lf" in text
        assert "audit_run" in text

    def test_reports_dropped_events(self):
        # instants beyond the span capacity are dropped spans
        text = render_report(populated())
        assert "dropped 1 of 3 spans" in text

    def test_empty_instrumentation_renders(self):
        assert "(no metrics recorded)" in render_report(Instrumentation())


class TestJson:
    def test_round_trip_preserves_report(self):
        obs = populated()
        restored = from_json(to_json(obs))
        assert render_report(restored) == render_report(obs)

    def test_round_trip_is_dict_exact(self):
        obs = populated()
        with obs.span("run", epochs=2):
            with obs.span("collect"):
                pass
        restored = from_json(to_json(obs))
        assert restored.to_dict() == obs.to_dict()

    def test_round_trip_keeps_unobserved_histogram_bounds(self):
        obs = Instrumentation()
        obs.histogram("lp.solve_seconds.never-observed")
        restored = from_json(to_json(obs))
        hist = restored.metrics.histograms["lp.solve_seconds.never-observed"]
        assert hist.count == 0
        assert hist.to_dict()["min"] is None
        assert hist.to_dict()["max"] is None
        # and it keeps working after restore
        hist.observe(0.5)
        assert hist.to_dict()["min"] == 0.5

    def test_round_trip_keeps_dropped_event_count(self):
        obs = populated()  # span capacity 2, 3 instants -> 1 dropped
        restored = from_json(to_json(obs))
        assert restored.spans.dropped == obs.spans.dropped == 1
        assert [r.name for r in restored.spans.roots] == ["audit_run"] * 2
        assert restored.metrics.counter("events.audit_run").value == 3

    def test_parent_format_dump_loads_and_renders(self):
        restored = from_json(PARENT_FORMAT_DUMP)
        assert "trace" not in restored.to_dict()
        assert restored.metrics.counter("lp.solves").value == 1
        report = render_report(restored)
        assert "events.lp_solve" in report
        assert "lp.solve_seconds.prospector-lp-lf" in report
        assert "plan_built" not in report  # the old block is ignored
        flame = render_flame(restored)
        assert flame.splitlines()[0].startswith("plan (planner=lp-lf)")
        assert "`- solve (model=m)" in flame
        text = prometheus_text(restored)
        assert "repro_lp_solves_total 1.0" in text
        assert "repro_lp_solve_seconds_prospector_lp_lf_count 1" in text

    def test_round_trip_keeps_span_tree_and_dropped_spans(self):
        obs = Instrumentation(span_capacity=2)
        with obs.span("run", planner="lp-lf"):
            with obs.span("solve"):
                pass
            with obs.span("beyond-capacity"):
                pass
        restored = from_json(to_json(obs))
        assert restored.spans.to_dict() == obs.spans.to_dict()
        assert restored.spans.dropped == 1
        (root,) = restored.spans.roots
        assert root.name == "run"
        assert root.attributes == {"planner": "lp-lf"}
        assert [child.name for child in root.children] == ["solve"]
