"""Distributed observability: trace contexts, shard telemetry, live surfaces.

Three layers, all optional and all built on the in-process toolkit:

- :class:`TraceContext` — a compact (trace id, parent span id) pair
  that rides the wire with a request (a fixed block in the binary
  frame header) so a client span, the router's dispatch span, and the worker's
  ``service.request`` → plan → compile → solve subtree stitch into one
  cross-process trace.  Trace ids are minted at the outermost client
  span and inherited by anything nested inside it (:func:`adopt_trace`).
- :class:`TelemetryAggregator` — merges per-shard snapshots (metrics
  registry dumps, span trees, slow-request exemplars) polled over the
  shard Pipe channel into fleet-level views: fleet p50/p95/p99 from
  histograms merged exactly on the shared geometric bucket grid (each
  within :data:`~repro.obs.metrics.RELATIVE_ERROR` of the exact order
  statistic), per-shard qps from successive snapshot deltas, and a
  single merged Chrome-trace document with one ``pid`` lane per shard.
- :class:`TelemetryServer` — an opt-in stdlib ``http.server`` thread
  serving Prometheus exposition (``/metrics``), the merged trace
  (``/trace``), slow-request exemplars (``/exemplars``), and the
  dashboard snapshot (``/json``) that ``repro top`` renders.

Nothing here imports :mod:`repro.service`; the service layer depends on
this module, not the other way around.
"""

from __future__ import annotations

import heapq
import json
import random
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ObservabilityError
from repro.obs.export import (
    _format_value,
    _metric_name,
    _summary_lines,
    _trace_document,
)
from repro.obs.instrument import REQUEST_LATENCY_METRIC, Instrumentation
from repro.obs.metrics import Histogram
from repro.obs.spans import NULL_SPAN

__all__ = [
    "LocalTelemetrySource",
    "REQUEST_LATENCY_METRIC",
    "SlowRequestLog",
    "TelemetryAggregator",
    "TelemetryServer",
    "TraceContext",
    "adopt_trace",
    "inherited_trace_id",
    "new_trace_id",
    "render_top",
]

MAX_TRACE_ID = (1 << 64) - 1


# -- trace context -----------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """The cross-process trace coordinates carried with one request.

    ``trace_id`` names the whole distributed trace; ``parent_span_id``
    is the sender-side span the receiver's work nests under.  Both are
    unsigned 64-bit so the pair packs into a fixed 16-byte frame
    header block.
    """

    trace_id: int
    parent_span_id: int = 0

    def __post_init__(self) -> None:
        for field in ("trace_id", "parent_span_id"):
            value = getattr(self, field)
            if not isinstance(value, int) or not (0 <= value <= MAX_TRACE_ID):
                raise ObservabilityError(
                    f"trace context {field} must be a u64 (got {value!r})"
                )
        if self.trace_id == 0:
            raise ObservabilityError("trace id 0 is reserved (no trace)")


_TRACE_RNG = random.Random()


def new_trace_id(rng: random.Random | None = None) -> int:
    """A fresh nonzero 64-bit trace id."""
    return (rng or _TRACE_RNG).getrandbits(63) | 1


def inherited_trace_id(obs: Instrumentation | None) -> int | None:
    """The trace id of the innermost open span that carries one.

    This is how nesting propagates a trace without threading arguments:
    a ``service.shard.request`` span annotated with ``trace_id`` makes
    every client span opened inside it join the same trace.
    """
    if obs is None:
        return None
    for span in reversed(obs.spans.open_spans):
        trace_id = span.attributes.get("trace_id")
        if trace_id:
            return int(trace_id)
    return None


def adopt_trace(obs: Instrumentation | None, span) -> TraceContext | None:
    """Annotate an *entered* span with its trace id; return the context
    a downstream hop should carry.

    The span inherits the enclosing open span's trace id when there is
    one, otherwise a fresh id is minted — so the outermost client span
    starts the trace and everything nested (including across processes)
    joins it.  Returns ``None`` on the disabled path.
    """
    if obs is None or span is NULL_SPAN:
        return None
    trace_id = span.attributes.get("trace_id")
    if not trace_id:
        trace_id = inherited_trace_id(obs) or new_trace_id()
        span.annotate(trace_id=trace_id)
    return TraceContext(trace_id=int(trace_id), parent_span_id=span.span_id)


# -- slow-request exemplars --------------------------------------------------


class SlowRequestLog:
    """The top-N slowest requests, kept as full span-tree dumps.

    A bounded min-heap on duration: offering a finished request span
    either fits (under capacity), beats the current fastest exemplar
    (replace), or is ignored — O(log N) per slow request, O(1) for the
    common fast request.  Dumps (not live spans) are stored so the
    exemplars survive span-tracer ring eviction and pickle cleanly over
    the shard telemetry Pipe.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ObservabilityError("slow-request log capacity must be >= 1")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = 0
        self._lock = threading.Lock()

    def offer(self, span) -> None:
        """Consider one finished request span for the exemplar set."""
        if span is NULL_SPAN or not span.finished:
            return
        duration = span.duration_s
        with self._lock:
            full = len(self._heap) >= self.capacity
            if full and duration <= self._heap[0][0]:
                return
            self._seq += 1
            entry = (duration, self._seq, span.to_dict())
            (heapq.heapreplace if full else heapq.heappush)(self._heap, entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def to_dicts(self) -> list[dict]:
        """Exemplars slowest-first: ``{"duration_s", "span"}`` rows."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: -e[0])
        return [
            {"duration_s": duration, "span": dump}
            for duration, __, dump in entries
        ]


# -- fleet aggregation -------------------------------------------------------


def _latency_columns(latency: Histogram | None) -> dict:
    """A dashboard row's ``p50_ms``/``p99_ms`` (None without data)."""
    if latency is None:
        return {"p50_ms": None, "p99_ms": None}
    p50, p99 = latency.quantiles(50, 99)
    return {"p50_ms": round(p50 * 1e3, 3), "p99_ms": round(p99 * 1e3, 3)}


class TelemetryAggregator:
    """Fleet-level view over per-shard telemetry snapshots.

    Feed it the dicts produced by
    ``TopKService.telemetry_snapshot()`` (tagged with a ``"shard"``
    key); it keeps the latest snapshot per shard, derives qps from
    successive snapshot deltas, merges the shards' bucket-grid
    histograms into fleet quantiles, and renders the live surfaces
    (Prometheus text, merged Chrome trace, dashboard rows).
    Thread-safe: the HTTP server polls while the owner ingests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: dict[str, dict] = {}
        self._rates: dict[str, float] = {}
        self._prev: dict[str, tuple[float, float]] = {}

    # -- ingestion ------------------------------------------------------
    def ingest(self, snapshot: dict) -> None:
        """Fold in one shard snapshot (latest wins; qps from deltas)."""
        shard = str(snapshot.get("shard", "0"))
        ts = float(snapshot.get("ts", 0.0))
        requests = float(snapshot.get("requests_handled", 0.0))
        with self._lock:
            previous = self._prev.get(shard)
            if previous is not None and ts > previous[0]:
                self._rates[shard] = max(
                    0.0, (requests - previous[1]) / (ts - previous[0])
                )
            else:
                uptime = float(snapshot.get("uptime_s", 0.0) or 0.0)
                self._rates[shard] = requests / uptime if uptime > 0 else 0.0
            self._prev[shard] = (ts, requests)
            self._snapshots[shard] = snapshot

    # -- accessors ------------------------------------------------------
    @property
    def shards(self) -> list[str]:
        with self._lock:
            return sorted(self._snapshots, key=lambda s: (len(s), s))

    def snapshot(self, shard: str) -> dict:
        with self._lock:
            return self._snapshots[str(shard)]

    def qps(self, shard: str) -> float:
        with self._lock:
            return self._rates.get(str(shard), 0.0)

    def fleet_qps(self) -> float:
        with self._lock:
            return sum(self._rates.values())

    def _shard_histograms_locked(
        self, shards: list[str], name: str
    ) -> list[Histogram | None]:
        """Each shard's ``name`` histogram, rebuilt once from its dump."""
        dumps = [
            self._snapshots[shard].get("metrics", {})
            .get("histograms", {}).get(name)
            for shard in shards
        ]
        return [Histogram.from_dict(name, d) if d else None for d in dumps]

    @staticmethod
    def _merged(name: str, hists: list[Histogram | None]) -> Histogram | None:
        merged: Histogram | None = None
        for hist in hists:
            if hist is not None:
                merged = merged or Histogram(name)
                merged.merge(hist)
        return merged

    def fleet_histogram(self, name: str) -> Histogram | None:
        """The named histogram merged across every shard."""
        with self._lock:
            shards = sorted(self._snapshots, key=lambda s: (len(s), s))
            hists = self._shard_histograms_locked(shards, name)
        return self._merged(name, hists)

    # -- dashboard rows -------------------------------------------------
    def _rows_and_latency(self) -> tuple[list[dict], Histogram | None]:
        """One dashboard row per shard plus a trailing fleet row, and
        the fleet request-latency histogram behind the fleet row."""
        rows = []
        cache_hits = cache_lookups = 0.0
        with self._lock:
            shards = sorted(self._snapshots, key=lambda s: (len(s), s))
            latencies = self._shard_histograms_locked(
                shards, REQUEST_LATENCY_METRIC
            )
            for shard, latency in zip(shards, latencies):
                snapshot = self._snapshots[shard]
                cache = snapshot.get("cache", {})
                hits = float(cache.get("hits", 0))
                lookups = hits + float(cache.get("misses", 0))
                cache_hits += hits
                cache_lookups += lookups
                rows.append(
                    {
                        "shard": shard,
                        "qps": round(self._rates.get(shard, 0.0), 2),
                        **_latency_columns(latency),
                        "requests": int(snapshot.get("requests_handled", 0)),
                        "sessions": int(snapshot.get("sessions_open", 0)),
                        "cache_hit_pct": (
                            round(100.0 * hits / lookups, 1)
                            if lookups
                            else None
                        ),
                        "energy_mj": round(
                            float(snapshot.get("energy_mj", 0.0)), 3
                        ),
                        "dropped_spans": int(
                            snapshot.get("spans", {}).get("dropped", 0)
                        ),
                        "uptime_s": round(
                            float(snapshot.get("uptime_s", 0.0)), 1
                        ),
                    }
                )
        fleet_latency = self._merged(REQUEST_LATENCY_METRIC, latencies)
        rows.append(
            {
                "shard": "fleet",
                "qps": round(self.fleet_qps(), 2),
                **_latency_columns(fleet_latency),
                "requests": sum(r["requests"] for r in rows),
                "sessions": sum(r["sessions"] for r in rows),
                "cache_hit_pct": (
                    round(100.0 * cache_hits / cache_lookups, 1)
                    if cache_lookups
                    else None
                ),
                "energy_mj": round(sum(r["energy_mj"] for r in rows), 3),
                "dropped_spans": sum(r["dropped_spans"] for r in rows),
                "uptime_s": max(
                    (r["uptime_s"] for r in rows), default=0.0
                ),
            }
        )
        return rows, fleet_latency

    def top_rows(self) -> list[dict]:
        """One dashboard row per shard plus a trailing fleet row."""
        return self._rows_and_latency()[0]

    def to_json_dict(self) -> dict:
        """The ``/json`` payload ``repro top`` renders."""
        return {"rows": self.top_rows(), "shards": self.shards}

    # -- exemplars ------------------------------------------------------
    def exemplars(self, limit: int = 8) -> list[dict]:
        """The fleet's slowest requests (tagged by shard), slowest first."""
        merged: list[dict] = []
        with self._lock:
            for shard, snapshot in self._snapshots.items():
                for entry in snapshot.get("exemplars", []):
                    merged.append({**entry, "shard": shard})
        merged.sort(key=lambda e: -float(e.get("duration_s", 0.0)))
        return merged[:limit]

    # -- Prometheus exposition ------------------------------------------
    def prometheus(self, prefix: str = "repro") -> str:
        """Per-shard qps/p99/requests/cache/energy gauges plus fleet
        request-latency quantiles, in text exposition format."""
        lines: list[str] = []
        rows, latency = self._rows_and_latency()
        *shard_rows, fleet = rows
        for metric, column, divisor in (
            ("shard_qps", "qps", 1.0),
            ("shard_p99_seconds", "p99_ms", 1e3),
            ("shard_requests", "requests", 1.0),
            ("shard_sessions_open", "sessions", 1.0),
            ("shard_energy_mj", "energy_mj", 1.0),
        ):
            name = _metric_name(metric, prefix)
            lines.append(f"# TYPE {name} gauge")
            for row in shard_rows:
                value = float(row[column] or 0.0) / divisor
                lines.append(
                    f'{name}{{shard="{row["shard"]}"}} {_format_value(value)}'
                )
        name = _metric_name("fleet_qps", prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(fleet['qps'])}")
        if latency is not None and latency.count:
            lines += _summary_lines(
                _metric_name(REQUEST_LATENCY_METRIC, prefix), latency
            )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- merged Chrome trace --------------------------------------------
    def chrome_trace(self, client: Instrumentation | None = None) -> dict:
        """One Chrome trace-event document across the whole fleet.

        Each shard's span forest becomes its own ``pid`` lane (named
        ``shard <i>``); a client-side :class:`Instrumentation` adds a
        ``client`` lane.  Spans inherit the ``trace_id`` of their
        nearest annotated ancestor, so filtering on one trace id in
        perfetto shows the full client → dispatch → worker story.
        Timestamps align because every process reads the same
        system-wide monotonic clock.
        """
        lanes: list[tuple[str, list[dict]]] = []
        if client is not None:
            lanes.append(
                ("client", [r.to_dict() for r in client.spans.roots])
            )
        with self._lock:
            shards = sorted(self._snapshots, key=lambda s: (len(s), s))
            for shard in shards:
                roots = self._snapshots[shard].get("spans", {}).get(
                    "roots", []
                )
                lanes.append((f"shard {shard}", list(roots)))
        return _trace_document(lanes)

    def chrome_trace_json(
        self, client: Instrumentation | None = None,
        indent: int | None = None,
    ) -> str:
        return json.dumps(self.chrome_trace(client), indent=indent)


# -- dashboard rendering -----------------------------------------------------

_TOP_COLUMNS = (
    ("shard", 6), ("qps", 8), ("p50_ms", 8), ("p99_ms", 8),
    ("requests", 9), ("sessions", 9), ("cache_hit_pct", 7),
    ("energy_mj", 10), ("dropped_spans", 6),
)

_TOP_HEADERS = {
    "cache_hit_pct": "cache%", "dropped_spans": "drops",
    "energy_mj": "energy_mj", "p50_ms": "p50(ms)", "p99_ms": "p99(ms)",
}


def render_top(rows: list[dict]) -> str:
    """The ``repro top`` dashboard: one aligned line per shard + fleet."""
    header = "  ".join(
        _TOP_HEADERS.get(field, field).rjust(width)
        for field, width in _TOP_COLUMNS
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for field, width in _TOP_COLUMNS:
            value = row.get(field)
            cells.append(("-" if value is None else str(value)).rjust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)


# -- the opt-in HTTP surface -------------------------------------------------


class TelemetryServer:
    """A live-telemetry HTTP endpoint on a stdlib server thread.

    ``collect`` is called per request and must return a (refreshed)
    :class:`TelemetryAggregator` — for a sharded service that is
    ``ShardedService.poll_telemetry``; for a single process it is a
    :class:`LocalTelemetrySource`.  Routes:

    - ``/metrics``   Prometheus text exposition
    - ``/trace``     merged Chrome-trace JSON (perfetto-loadable)
    - ``/exemplars`` slowest-request span trees (JSON)
    - ``/json``      dashboard snapshot (what ``repro top`` polls)
    """

    def __init__(
        self, collect, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.collect = collect
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # quiet by design
                return

            def _send(self, status: int, body: bytes, ctype: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - stdlib contract
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        body = outer.collect().prometheus().encode()
                        self._send(200, body, "text/plain; version=0.0.4")
                    elif path == "/trace":
                        body = outer.collect().chrome_trace_json().encode()
                        self._send(200, body, "application/json")
                    elif path == "/exemplars":
                        body = json.dumps(
                            outer.collect().exemplars()
                        ).encode()
                        self._send(200, body, "application/json")
                    elif path == "/json":
                        body = json.dumps(
                            outer.collect().to_json_dict()
                        ).encode()
                        self._send(200, body, "application/json")
                    else:
                        self._send(404, b"not found\n", "text/plain")
                except Exception as err:  # surface, never crash the thread
                    self._send(
                        500, f"telemetry error: {err}\n".encode(),
                        "text/plain",
                    )

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def url(self, path: str = "/json") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class LocalTelemetrySource:
    """Adapts one in-process service to the ``collect`` contract.

    Each call snapshots the service as shard ``"0"`` and returns the
    aggregator — the single-process twin of
    ``ShardedService.poll_telemetry``.
    """

    def __init__(self, service, shard: str = "0") -> None:
        self.service = service
        self.shard = shard
        self.aggregator = TelemetryAggregator()

    def __call__(self) -> TelemetryAggregator:
        snapshot = self.service.telemetry_snapshot()
        snapshot["shard"] = self.shard
        self.aggregator.ingest(snapshot)
        return self.aggregator
