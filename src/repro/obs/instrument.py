"""The :class:`Instrumentation` facade and its no-op helpers.

One ``Instrumentation`` object bundles a metrics registry with a span
tracer and is threaded — always optionally — through the layers that
do measurable work: LP backends, planners (via ``PlanningContext``),
the simulator, the query engine and the service.  Spans (with
attributes) and metrics are the only records:

- a region's latency histogram is fed from its span's ``duration_s``;
- what a record says about a region is attributes of its span (a
  ``solve`` span's LP size, a ``plan`` span's cost and budget);
- an occurrence with an identity (a plan installed, a session
  expired) is a zero-length instant span (:meth:`Instrumentation.event`).

Call sites never branch on feature flags; they either hold an
``Instrumentation`` or ``None``, and :func:`~repro.obs.spans.maybe_span`
and :func:`record_event` collapse to no-ops for ``None`` so the
disabled path allocates nothing.
"""

from __future__ import annotations

import time

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

REQUEST_LATENCY_METRIC = "service.request_seconds"
"""Histogram name every service feeds its request wall time into; the
aggregator's per-shard and fleet p50/p95/p99 read this metric."""

# metric name templates of the records, formatted with their label
_COLLECTION = (
    "sim.collections", "sim.collections.{}", "sim.messages",
    "sim.values_sent", "sim.retries", "sim.energy_mj",
)
_DEPTH = ("sim.messages.depth{}", "sim.bytes.depth{}", "sim.energy_mj.depth{}")
_BATCH_COLLECTION = (
    "sim.batch.collections", "sim.batch.collections.{}", "sim.batch.epochs",
    "sim.batch.messages", "sim.batch.values_sent", "sim.batch.retries",
    "sim.batch.energy_mj",
)
_BATCH_HISTOGRAMS = ("sim.batch.size", "sim.batch.seconds.{}")
_ENERGY = ("engine.energy_mj", "engine.energy_mj.{}")
_SAMPLE = ("engine.samples", "engine.samples.{}")
_EVENT = ("events.{}",)
_REQUEST = ("service.requests", "service.requests.{}")
_LATENCY = (REQUEST_LATENCY_METRIC,)
_WIRE = ("service.wire.request_bytes", "service.wire.reply_bytes")

EVENT_KINDS = (
    "plan_installed",
    "failure_observed",
    "audit_run",
    "shard_lifecycle",
    "session_expired",
)
"""The occurrences recorded as instant spans; :meth:`Instrumentation.event`
rejects any other kind."""


class Instrumentation:
    """Metrics registry and span tracer with domain helpers.

    Parameters
    ----------
    span_capacity:
        Maximum retained spans in the latency tree, instants included
        (further spans are counted as dropped).
    clock:
        Monotonic seconds source of the spans (default
        ``time.perf_counter``); injectable so tests assert exact
        durations.
    span_mode:
        ``"block"`` (default) or ``"ring"``; ring keeps the newest
        span trees when the tracer fills up, which long-running
        services want (see :class:`~repro.obs.spans.SpanTracer`).
    """

    def __init__(
        self,
        span_capacity: int = 8192,
        clock=None,
        span_mode: str = "block",
    ) -> None:
        self.clock = clock or time.perf_counter
        self.metrics = MetricsRegistry()
        self.spans = SpanTracer(
            clock=self.clock, capacity=span_capacity, mode=span_mode
        )
        # (templates, label) -> the metrics a record adds to directly
        self._bound: dict = {}

    def _metrics(self, templates: tuple, label="", kind="counter") -> tuple:
        """The ``kind`` metrics named by ``templates`` formatted with
        ``label``, resolved (and the names formatted) on first use only."""
        try:
            return self._bound[templates, label]
        except KeyError:
            resolve = getattr(self.metrics, kind)
            bound = self._bound[templates, label] = tuple(
                resolve(template.format(label)) for template in templates
            )
            return bound

    # -- primitive API --------------------------------------------------
    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        return self.metrics.histogram(name)

    def span(self, name: str, **attributes):
        """A fresh span; nests under the currently open span on enter."""
        return self.spans.span(name, **attributes)

    def event(self, kind: str, **data):
        """Record one occurrence of ``kind`` (one of :data:`EVENT_KINDS`)
        as an instant span under the current span, with ``data`` as its
        attributes, and bump its ``events.<kind>`` counter."""
        if kind not in EVENT_KINDS:
            raise ObservabilityError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        self._metrics(_EVENT, kind)[0].value += 1
        return self.spans.instant(kind, data)

    # -- domain helpers (one per cross-cutting record shape) -----------
    def record_lp_solve(self, span, model_name: str, stats) -> None:
        """One LP solve, recorded after its ``solve`` span exits: its
        size as the span's attributes, plus the solve counters (a
        warm-started ladder member also counts in ``lp.warm_starts``)
        and the span's duration into ``lp.solve_seconds.<model>``.

        ``stats`` is a :class:`~repro.lp.result.SolveStats` (duck-typed
        so :mod:`repro.obs` stays dependency-free; one without a
        ``warm_started`` field records as cold).
        """
        span.annotate(
            variables=stats.num_variables,
            constraints=stats.num_constraints,
        )
        self.metrics.counter("lp.solves").inc()
        self.metrics.counter("lp.iterations").inc(stats.iterations)
        if getattr(stats, "warm_started", False):
            self.metrics.counter("lp.warm_starts").inc()
        self.metrics.histogram(f"lp.solve_seconds.{model_name}").observe(
            span.duration_s
        )
        self.metrics.histogram("lp.variables").observe(stats.num_variables)
        self.metrics.histogram("lp.constraints").observe(stats.num_constraints)

    def record_lp_batch(self, span, model_name: str, members: int) -> None:
        """One ladder solved through ``solve_batch`` under its finished
        ``batch.solve`` span, whose duration feeds
        ``lp.batch.seconds.<model>``."""
        self.metrics.counter("lp.batch.solves").inc()
        self.metrics.counter("lp.batch.members").inc(members)
        self.metrics.histogram(f"lp.batch.seconds.{model_name}").observe(
            span.duration_s
        )

    def record_plan_built(
        self, span, planner: str, *, edges_used: int,
        static_cost_mj: float, budget_mj: float,
    ) -> None:
        """One planner invocation (LP-based or combinatorial), recorded
        after its ``plan`` span exits: the plan's size, cost and budget
        as the span's attributes, its duration into
        ``plan.build_seconds.<planner>``, plus the build counters."""
        span.annotate(
            edges_used=edges_used,
            static_cost_mj=static_cost_mj,
            budget_mj=budget_mj,
        )
        self.metrics.counter("plan.builds").inc()
        self.metrics.counter(f"plan.builds.{planner}").inc()
        self.metrics.gauge(f"plan.static_cost_mj.{planner}").set(static_cost_mj)
        self.metrics.histogram(f"plan.build_seconds.{planner}").observe(
            span.duration_s
        )

    def bind_depths(self, by_depth: dict) -> tuple:
        """The ``sim.*.depth<d>`` ``(counter, amount)`` adds of a
        per-edge-depth ``messages``/``bytes``/``energy_mj`` breakdown,
        resolved once so :meth:`record_collection` only adds."""
        return tuple(
            add for depth, detail in by_depth.items() for add in zip(
                self._metrics(_DEPTH, depth),
                (detail["messages"], detail["bytes"], detail["energy_mj"]),
            )
        )

    def record_collection(
        self, span, label: str, *, messages: int, values: int,
        retries: int, energy_mj: float, depth_adds: tuple = (),
    ) -> None:
        """One simulated collection phase: its figures as attributes of
        ``span`` (its ``collect`` span, or the span it ran under, where
        the figures of several collections add up), plus the ``sim.*``
        counters and the :meth:`bind_depths` per-depth adds."""
        for counter, amount in zip(
            self._metrics(_COLLECTION, label),
            (1, 1, messages, values, retries, energy_mj),
        ):
            counter.value += amount
        for counter, amount in depth_adds:
            counter.value += amount
        record = span.attributes
        if "messages" in record:  # an earlier collection under this span
            messages += record["messages"]
            values += record["values"]
            retries += record["retries"]
            energy_mj += record["energy_mj"]
        span.annotate(
            label=label, messages=messages, values=values, retries=retries,
            energy_mj=energy_mj,
        )

    def record_batch_collection(
        self, span, label: str, *, epochs: int, messages: int,
        values: int, retries: int, energy_mj: float,
    ) -> None:
        """One batched collection phase: an entire trace evaluated in a
        single vectorized tree recursion.

        ``messages``/``values``/``retries``/``energy_mj`` are totals
        over the whole batch, annotated on its finished ``collect`` span
        and added to the ``sim.batch.*`` counters; the batch-size
        histogram plus the span's duration per label are what the
        speedup benchmarks read back.
        """
        span.annotate(
            epochs=epochs, messages=messages, values=values,
            retries=retries, energy_mj=energy_mj,
        )
        for counter, amount in zip(
            self._metrics(_BATCH_COLLECTION, label),
            (1, 1, epochs, messages, values, retries, energy_mj),
        ):
            counter.value += amount
        size, timer = self._metrics(_BATCH_HISTOGRAMS, label, "histogram")
        size.observe(epochs)
        timer.observe(span.duration_s)

    def record_energy(self, category: str, energy_mj: float) -> None:
        """Engine energy spent on ``category`` (``engine.energy_mj``
        plus its per-category counter)."""
        total, per_category = self._metrics(_ENERGY, category)
        total.value += energy_mj
        per_category.value += energy_mj

    def record_sample(self, source: str) -> None:
        """One full-network sample added to an engine's window
        (``engine.samples`` plus its per-source counter)."""
        total, per_source = self._metrics(_SAMPLE, source)
        total.value += 1
        per_source.value += 1

    def record_request(self, kind: str) -> None:
        """One service request of ``kind`` (``service.requests`` plus
        its per-kind counter)."""
        total, per_kind = self._metrics(_REQUEST, kind)
        total.value += 1
        per_kind.value += 1

    def record_request_seconds(self, seconds: float) -> None:
        """One request's wall time, into :data:`REQUEST_LATENCY_METRIC`."""
        self._metrics(_LATENCY, kind="histogram")[0].observe(seconds)

    def record_wire(self, request_bytes: int, reply_bytes: int) -> None:
        """One request/reply exchange's sizes on the wire."""
        request, reply = self._metrics(_WIRE, kind="histogram")
        request.observe(request_bytes)
        reply.observe(reply_bytes)

    def record_runner_trial(self, span=None) -> None:
        """One experiment-runner trial: a result-cache hit (no ``span``),
        or a run timed by its finished ``runner.trial`` span."""
        self.metrics.counter("runner.trials").inc()
        if span is None:
            self.metrics.counter("runner.cache.hits").inc()
            return
        self.metrics.counter("runner.cache.misses").inc()
        self.metrics.histogram("runner.trial_seconds").observe(span.duration_s)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics.to_dict(),
            "spans": self.spans.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instrumentation":
        """Rebuild from :meth:`to_dict` output; any other top-level
        block (such as an older dump's ``"trace"``) is ignored."""
        obs = cls()
        obs.metrics = MetricsRegistry.from_dict(data.get("metrics", {}))
        obs.spans = SpanTracer.from_dict(data.get("spans", {}))
        return obs


def record_event(instrumentation: Instrumentation | None, kind: str, **data):
    """``instrumentation.event(kind, ...)`` (the instant span), or
    nothing at all."""
    if instrumentation is None:
        return None
    return instrumentation.event(kind, **data)
