"""Reporters: render an :class:`~repro.obs.instrument.Instrumentation`.

Three output shapes:

- :func:`render_report` — the ASCII tables used by ``python -m repro
  stats`` (counters, gauges, histograms, span aggregates), built on
  :func:`repro.experiments.reporting.format_table`;
- :func:`to_json` / :func:`from_json` — a lossless dump of metrics and
  spans for offline rendering;
- the row helpers (:func:`counter_rows` etc.) for callers that want to
  table the numbers themselves.
"""

from __future__ import annotations

import json

from repro.obs.instrument import Instrumentation


def counter_rows(obs: Instrumentation) -> list[dict]:
    return [
        {"counter": name, "value": metric.value}
        for name, metric in sorted(obs.metrics.counters.items())
    ]


def gauge_rows(obs: Instrumentation) -> list[dict]:
    return [
        {"gauge": name, "value": metric.value}
        for name, metric in sorted(obs.metrics.gauges.items())
    ]


def histogram_rows(obs: Instrumentation) -> list[dict]:
    rows = []
    for name, metric in sorted(obs.metrics.histograms.items()):
        row = {"histogram": name}
        row.update(metric.summary())
        rows.append(row)
    return rows


def span_rows(obs: Instrumentation) -> list[dict]:
    """Per-span-name aggregates over every retained tree."""
    totals: dict[str, dict] = {}
    for span, __ in obs.spans.walk():
        row = totals.setdefault(
            span.name, {"span": span.name, "count": 0, "total_s": 0.0,
                        "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.duration_s
        row["self_s"] += span.self_s()
    return sorted(totals.values(), key=lambda row: -row["total_s"])


def render_report(obs: Instrumentation, title: str = "observability report") -> str:
    """All four sections as one ASCII document."""
    # imported lazily: repro.experiments pulls in the figure modules,
    # which import the planners that themselves import repro.obs
    from repro.experiments.reporting import format_table

    sections = [title, "=" * len(title)]
    for heading, rows in (
        ("counters", counter_rows(obs)),
        ("gauges", gauge_rows(obs)),
        ("histograms", histogram_rows(obs)),
        ("spans", span_rows(obs)),
    ):
        if rows:
            sections.append(format_table(rows, title=heading))
    if obs.spans.dropped:
        sections.append(
            f"(span tracer dropped {obs.spans.dropped} of"
            f" {obs.spans.total_recorded} spans)"
        )
    if len(sections) == 2:
        sections.append("(no metrics recorded)")
    return "\n\n".join(sections)


def to_json(obs: Instrumentation, indent: int | None = 2) -> str:
    """Lossless JSON dump of metrics and spans."""
    return json.dumps(obs.to_dict(), indent=indent, sort_keys=True)


def from_json(text: str) -> Instrumentation:
    """Rebuild an instrumentation object from :func:`to_json` output.

    A dump written before the event trace was folded into spans carries
    a ``"trace"`` block; it is ignored, and the metrics and spans load
    as usual.
    """
    return Instrumentation.from_dict(json.loads(text))
