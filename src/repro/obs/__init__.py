"""Observability: metrics, hierarchical spans, and exporters.

The library's cross-cutting layers (LP backends, planners, simulator,
query engine) all accept one optional :class:`Instrumentation` object.
When present, every LP solve records variables/constraints/iterations/
wall-time, every collection its messages/values/retries/mJ (attributes
of the request or epoch span it runs in, else of its own ``collect``
span) plus bound per-edge-depth counters, every engine epoch its
explore/exploit/replan decision path, and the pipeline builds a span
tree (plan → compile → solve → round; epoch → replan.decide); when
absent (the default), the hot paths do no observability work at all.

Quick tour::

    from repro.obs import Instrumentation, render_report, render_flame

    obs = Instrumentation()
    engine = TopKEngine(..., instrumentation=obs)
    ...
    print(render_report(obs))          # ASCII tables
    print(render_flame(obs))           # span tree with wall times
    chrome_trace_json(obs)             # load in ui.perfetto.dev
    prometheus_text(obs)               # text exposition for scrapes
    obs.spans.find("solve")            # every LP solve, with its size

Per-node battery telemetry lives in :class:`EnergyLedger`; attach one
to a simulator (``Simulator(..., ledger=ledger)``) and read back
burn-down curves, projected lifetime, and the hottest nodes.
"""

from repro.obs.distributed import (
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
from repro.obs.energy import EnergyLedger
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    render_flame,
)
from repro.obs.instrument import EVENT_KINDS, Instrumentation, record_event
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    counter_rows,
    from_json,
    gauge_rows,
    histogram_rows,
    render_report,
    span_rows,
    to_json,
)
from repro.obs.spans import NULL_SPAN, Span, SpanTracer, maybe_span

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "EnergyLedger",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "LocalTelemetrySource",
    "MetricsRegistry",
    "NULL_SPAN",
    "SlowRequestLog",
    "Span",
    "SpanTracer",
    "TelemetryAggregator",
    "TelemetryServer",
    "TraceContext",
    "adopt_trace",
    "chrome_trace",
    "chrome_trace_json",
    "counter_rows",
    "from_json",
    "gauge_rows",
    "histogram_rows",
    "inherited_trace_id",
    "maybe_span",
    "new_trace_id",
    "prometheus_text",
    "record_event",
    "render_flame",
    "render_report",
    "render_top",
    "span_rows",
    "to_json",
]
