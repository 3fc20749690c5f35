"""Exporters: turn an instrumented run into standard tool formats.

Three writers over one :class:`~repro.obs.instrument.Instrumentation`:

- :func:`chrome_trace` / :func:`chrome_trace_json` — Chrome
  trace-event JSON (the ``traceEvents`` array format), loadable in
  perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Every
  span becomes a complete ("X") event, an instant span one with
  ``dur`` 0.  One writer (``_trace_document``) serves both this and
  the fleet aggregator's merged trace.
- :func:`prometheus_text` — the Prometheus text exposition format for
  the metrics registry (counters, gauges, histograms-as-summaries).
- :func:`render_flame` — a flame-style ASCII tree of the span
  hierarchy for the terminal (``python -m repro trace``).

All three are pure functions of the instrumentation object, so dumps
restored with :func:`~repro.obs.report.from_json` export identically.
"""

from __future__ import annotations

import json

from repro.obs.instrument import Instrumentation
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "prometheus_text",
    "render_flame",
]


# -- Chrome trace-event JSON -------------------------------------------------


def _span_dump_events(
    dump: dict, origin_s: float, pid: int, trace_id, out: list[dict]
) -> None:
    """Emit Chrome ``X`` events for one span-dump subtree.

    ``trace_id`` is the inherited trace id from the nearest annotated
    ancestor; a span carrying its own ``trace_id`` attribute switches
    the subtree to it.  That is what stitches a worker's plan/compile/
    solve spans (annotated only at the ``service.request`` root) into
    the client's trace in the merged document.
    """
    args = dict(dump.get("attributes", {}))
    own = args.get("trace_id")
    trace_id = own if own else trace_id
    if trace_id:
        args["trace_id"] = trace_id
    span_id = dump.get("span_id", 0)
    if span_id:
        args["span_id"] = span_id
    start = float(dump.get("start_s", 0.0))
    end = dump.get("end_s")
    out.append(
        {
            "name": dump.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": (start - origin_s) * 1e6,
            "dur": ((end - start) if end is not None else 0.0) * 1e6,
            "pid": pid,
            "tid": 1,
            "args": args,
        }
    )
    for child in dump.get("children", []):
        _span_dump_events(child, origin_s, pid, trace_id, out)


def _trace_document(lanes: list[tuple[str, list[dict]]]) -> dict:
    """A Chrome trace-event document of span-dump forests.

    Each ``(name, roots)`` lane becomes one ``pid`` (numbered from 1 in
    order) with a ``process_name`` record.  Timestamps are microseconds
    relative to the earliest root, so the timeline starts at zero.
    """
    # a child starts inside its parent: the roots hold the origin
    starts = [
        float(root.get("start_s", 0.0))
        for __, roots in lanes for root in roots
    ]
    origin = min(starts) if starts else 0.0
    events: list[dict] = []
    for pid, (name, roots) in enumerate(lanes, start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": name},
            }
        )
        for root in roots:
            _span_dump_events(root, origin, pid, None, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace(obs: Instrumentation) -> dict:
    """The run as a Chrome trace-event document (JSON-ready dict): one
    ``repro`` lane of :func:`_trace_document`.  Span attributes travel
    in ``args``, with the span id and inherited trace id."""
    return _trace_document(
        [("repro", [root.to_dict() for root in obs.spans.roots])]
    )


def chrome_trace_json(obs: Instrumentation, indent: int | None = None) -> str:
    """:func:`chrome_trace` serialized to a JSON string."""
    return json.dumps(chrome_trace(obs), indent=indent)


# -- Prometheus text exposition ----------------------------------------------


def _metric_name(name: str, prefix: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(obs: Instrumentation, prefix: str = "repro") -> str:
    """The metrics registry in Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix; histograms are
    exposed as summaries (:meth:`~repro.obs.metrics.Histogram.quantile`
    on the shared bucket grid, within its stated relative error, plus
    exact ``_sum`` and ``_count``).  Output is sorted for diff-stable
    scrapes.
    """
    lines: list[str] = []
    for name, counter in sorted(obs.metrics.counters.items()):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counter.value)}")
    for name, gauge in sorted(obs.metrics.gauges.items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")
    for name, hist in sorted(obs.metrics.histograms.items()):
        lines += _summary_lines(_metric_name(name, prefix), hist)
    return "\n".join(lines) + ("\n" if lines else "")


def _summary_lines(metric: str, hist) -> list[str]:
    """One histogram as a Prometheus summary: p50/p95/p99 from one
    pass over its buckets, plus exact ``_sum`` and ``_count``."""
    lines = [f"# TYPE {metric} summary"]
    for quantile, value in zip(
        (0.5, 0.95, 0.99), hist.quantiles(50.0, 95.0, 99.0)
    ):
        lines.append(
            f'{metric}{{quantile="{quantile}"}} {_format_value(value)}'
        )
    lines.append(f"{metric}_sum {_format_value(hist.total)}")
    lines.append(f"{metric}_count {hist.count}")
    return lines


# -- flame-style ASCII tree --------------------------------------------------


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attrs(attributes: dict, limit: int = 3) -> str:
    if not attributes:
        return ""
    parts = [f"{k}={v}" for k, v in list(attributes.items())[:limit]]
    if len(attributes) > limit:
        parts.append("...")
    return " (" + ", ".join(parts) + ")"


def _render_span(
    span: Span,
    root_s: float,
    prefix: str,
    is_last: bool,
    lines: list[str],
    bar_width: int,
) -> None:
    connector = "" if not prefix and is_last is None else (
        "`- " if is_last else "|- "
    )
    share = span.duration_s / root_s if root_s > 0 else 0.0
    bar = "#" * max(1, round(share * bar_width)) if share > 0 else ""
    label = f"{prefix}{connector}{span.name}{_format_attrs(span.attributes)}"
    lines.append(
        f"{label.ljust(48)} {_format_duration(span.duration_s).rjust(9)}"
        f" {share * 100:5.1f}%  {bar}"
    )
    child_prefix = prefix + ("" if is_last is None else
                             ("   " if is_last else "|  "))
    for position, child in enumerate(span.children):
        _render_span(
            child, root_s, child_prefix,
            position == len(span.children) - 1, lines, bar_width,
        )


def render_flame(
    source: Instrumentation | SpanTracer, bar_width: int = 20
) -> str:
    """The span tree as an indented ASCII flame view.

    Each line shows the span (with up to three attributes), its wall
    time, its share of the enclosing root span, and a proportional
    bar.  Unfinished spans report their elapsed-so-far.
    """
    tracer = source.spans if isinstance(source, Instrumentation) else source
    if not tracer.roots:
        return "(no spans recorded)"
    lines: list[str] = []
    for root in tracer.roots:
        _render_span(root, root.duration_s, "", None, lines, bar_width)
    if tracer.dropped:
        lines.append(
            f"(span tracer dropped {tracer.dropped} of"
            f" {tracer.total_recorded} spans)"
        )
    return "\n".join(lines)
