"""The :class:`Instrumentation` facade and its no-op helpers.

One ``Instrumentation`` object bundles a metrics registry with an
event trace and is threaded — always optionally — through the layers
that do measurable work: LP backends, planners (via
``PlanningContext``), the simulator, and the query engine.  Call
sites never branch on feature flags; they either hold an
``Instrumentation`` or ``None``, and the module-level helpers
(:func:`maybe_timer`, :func:`record_event`) collapse to no-ops for
``None`` so the disabled path allocates nothing.
"""

from __future__ import annotations

import time

from repro.obs.events import EventTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, SpanTracer

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
_EVENT = ("events.{}",)
_REQUEST = ("service.requests", "service.requests.{}")
_LATENCY = (REQUEST_LATENCY_METRIC,)
_WIRE = ("service.wire.request_bytes", "service.wire.reply_bytes")


class Instrumentation:
    """Metrics registry, event trace, and span tracer with domain helpers.

    Parameters
    ----------
    trace_capacity:
        Ring-buffer size of the event trace; old events are evicted
        (and counted as dropped) beyond this.
    span_capacity:
        Maximum retained spans in the latency tree (further spans are
        counted as dropped).
    clock:
        Monotonic seconds source shared by timers, event timestamps,
        and spans (default ``time.perf_counter``); injectable so tests
        assert exact durations.
    span_mode:
        ``"block"`` (default) or ``"ring"``; ring keeps the newest
        span trees when the tracer fills up, which long-running
        services want (see :class:`~repro.obs.spans.SpanTracer`).
    """

    def __init__(
        self,
        trace_capacity: int = 1024,
        span_capacity: int = 8192,
        clock=None,
        span_mode: str = "block",
    ) -> None:
        self.clock = clock or time.perf_counter
        self.metrics = MetricsRegistry(clock=self.clock)
        self.trace = EventTrace(capacity=trace_capacity, clock=self.clock)
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

    def timer(self, name: str):
        """A fresh, nestable timing context over ``histogram(name)``."""
        return self.metrics.timer(name)

    def span(self, name: str, **attributes):
        """A fresh span; nests under the currently open span on enter."""
        return self.spans.span(name, **attributes)

    def event(self, kind: str, **data):
        """Record a typed event and bump its ``events.<kind>`` counter."""
        self._metrics(_EVENT, kind)[0].value += 1
        return self.trace.record(kind, **data)

    # -- domain helpers (one per cross-cutting record shape) -----------
    def record_lp_solve(self, model_name: str, stats) -> None:
        """One LP solve: per-formulation latency histogram + event.

        ``stats`` is a :class:`~repro.lp.result.SolveStats` (duck-typed
        so :mod:`repro.obs` stays dependency-free).
        """
        warm_started = bool(getattr(stats, "warm_started", False))
        pivots = int(getattr(stats, "pivots", 0))
        self.metrics.counter("lp.solves").inc()
        self.metrics.counter("lp.iterations").inc(stats.iterations)
        if warm_started:
            self.metrics.counter("lp.warm_starts").inc()
        if pivots:
            self.metrics.counter("lp.pivots").inc(pivots)
        self.metrics.histogram(f"lp.solve_seconds.{model_name}").observe(
            stats.wall_seconds
        )
        self.metrics.histogram("lp.variables").observe(stats.num_variables)
        self.metrics.histogram("lp.constraints").observe(stats.num_constraints)
        self.event(
            "lp_solve",
            model=model_name,
            backend=stats.backend,
            variables=stats.num_variables,
            constraints=stats.num_constraints,
            iterations=stats.iterations,
            wall_seconds=stats.wall_seconds,
            warm_started=warm_started,
            pivots=pivots,
        )

    def record_lp_sweep(
        self, model_name: str, *, members: int, warm_hits: int,
        pivots_saved: int, seconds: float, bland_activations: int = 0,
        cold_fallbacks: int = 0,
    ) -> None:
        """One budget ladder warm-solved by the pure simplex's
        ``solve_batch``.

        ``warm_hits`` counts members restarted from the previous
        optimal basis; ``pivots_saved`` is the pivot count a cold solve
        would have needed minus what the warm restarts actually spent
        (zero for backends without warm starts).  ``bland_activations``
        and ``cold_fallbacks`` are degeneracy telemetry: how often
        Bland's anti-cycling rule engaged and how many warm restarts
        had to be abandoned for cold re-solves.
        """
        self.metrics.counter("lp.sweep.solves").inc()
        self.metrics.counter("lp.sweep.members").inc(members)
        self.metrics.counter("lp.sweep.warm_hits").inc(warm_hits)
        self.metrics.counter("lp.sweep.pivots_saved").inc(pivots_saved)
        self.metrics.counter("lp.sweep.bland_activations").inc(
            bland_activations
        )
        self.metrics.counter("lp.sweep.cold_fallbacks").inc(cold_fallbacks)
        self.metrics.histogram(f"lp.sweep.seconds.{model_name}").observe(
            seconds
        )
        self.event(
            "lp_sweep",
            model=model_name,
            members=members,
            warm_hits=warm_hits,
            pivots_saved=pivots_saved,
            bland_activations=bland_activations,
            cold_fallbacks=cold_fallbacks,
            seconds=seconds,
        )

    def record_lp_batch(
        self, model_name: str, *, members: int, seconds: float
    ) -> None:
        """One ladder solved through ``solve_batch`` under a single
        ``batch.solve`` span."""
        self.metrics.counter("lp.batch.solves").inc()
        self.metrics.counter("lp.batch.members").inc(members)
        self.metrics.histogram(f"lp.batch.seconds.{model_name}").observe(
            seconds
        )
        self.event(
            "lp_batch", model=model_name, members=members, seconds=seconds
        )

    def record_plan_built(
        self, planner: str, *, edges_used: int, static_cost_mj: float,
        budget_mj: float, seconds: float,
    ) -> None:
        """One planner invocation (LP-based or combinatorial).

        The build-time histogram is fed by the caller's timer (see
        ``repro.planners.base.observed``); this records the rest.
        """
        self.metrics.counter("plan.builds").inc()
        self.metrics.counter(f"plan.builds.{planner}").inc()
        self.metrics.gauge(f"plan.static_cost_mj.{planner}").set(static_cost_mj)
        self.event(
            "plan_built",
            planner=planner,
            edges_used=edges_used,
            static_cost_mj=static_cost_mj,
            budget_mj=budget_mj,
            seconds=seconds,
        )

    def record_collection(
        self, span, label: str, *, messages: int, values: int,
        retries: int, energy_mj: float, by_depth: dict | None = None,
    ) -> None:
        """One simulated collection phase: its figures as attributes of
        its ``collect`` span (the phase's record), plus the ``sim.*``
        counters with per-edge-depth detail."""
        span.annotate(
            messages=messages, values=values, retries=retries,
            energy_mj=energy_mj,
        )
        for counter, amount in zip(
            self._metrics(_COLLECTION, label),
            (1, 1, messages, values, retries, energy_mj),
        ):
            counter.value += amount
        for depth, detail in (by_depth or {}).items():
            sent, nbytes, energy = self._metrics(_DEPTH, depth)
            sent.value += detail["messages"]
            nbytes.value += detail["bytes"]
            energy.value += detail["energy_mj"]

    def record_batch_collection(
        self, span, label: str, *, epochs: int, messages: int,
        values: int, retries: int, energy_mj: float, seconds: float,
    ) -> None:
        """One batched collection phase: an entire trace evaluated in a
        single vectorized tree recursion.

        ``messages``/``values``/``retries``/``energy_mj`` are totals
        over the whole batch, annotated on its ``collect`` span and
        added to the ``sim.batch.*`` counters; the batch-size histogram
        plus the per-label timer are what the speedup benchmarks read
        back.
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
        timer.observe(seconds)

    def record_energy(self, category: str, energy_mj: float) -> None:
        """Engine energy spent on ``category`` (``engine.energy_mj``
        plus its per-category counter)."""
        total, per_category = self._metrics(_ENERGY, category)
        total.value += energy_mj
        per_category.value += energy_mj

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

    def record_runner_trial(self, *, cached: bool, seconds: float = 0.0) -> None:
        """One experiment-runner trial: either served from the
        content-keyed result cache or actually executed."""
        self.metrics.counter("runner.trials").inc()
        if cached:
            self.metrics.counter("runner.cache.hits").inc()
        else:
            self.metrics.counter("runner.cache.misses").inc()
            self.metrics.histogram("runner.trial_seconds").observe(seconds)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics.to_dict(),
            "trace": self.trace.to_dict(),
            "spans": self.spans.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instrumentation":
        obs = cls()
        obs.metrics = MetricsRegistry.from_dict(data.get("metrics", {}))
        obs.trace = EventTrace.from_dict(
            data.get("trace", {"capacity": 1024, "next_seq": 0, "events": []})
        )
        obs.spans = SpanTracer.from_dict(data.get("spans", {}))
        return obs


NULL_TIMER = NULL_SPAN
"""The no-op timer is the no-op span (a context manager whose
``elapsed`` is 0.0); proof that the disabled path allocates nothing
(tests assert identity against this object)."""


def maybe_timer(instrumentation: Instrumentation | None, name: str):
    """``instrumentation.timer(name)``, or the shared no-op context."""
    if instrumentation is None:
        return NULL_TIMER
    return instrumentation.timer(name)


def record_event(instrumentation: Instrumentation | None, kind: str, **data):
    """``instrumentation.event(kind, ...)``, or nothing at all."""
    if instrumentation is None:
        return None
    return instrumentation.event(kind, **data)
