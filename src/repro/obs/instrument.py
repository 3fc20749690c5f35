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

import functools
import time

from repro.obs.events import EventTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer


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
        self.metrics.counter(f"events.{kind}").inc()
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
        self, label: str, *, messages: int, values: int, retries: int,
        energy_mj: float, by_depth: dict | None = None,
    ) -> None:
        """One simulated collection phase, with per-edge-depth detail."""
        self.metrics.counter("sim.collections").inc()
        self.metrics.counter(f"sim.collections.{label}").inc()
        self.metrics.counter("sim.messages").inc(messages)
        self.metrics.counter("sim.values_sent").inc(values)
        self.metrics.counter("sim.retries").inc(retries)
        self.metrics.counter("sim.energy_mj").inc(energy_mj)
        if by_depth:
            for depth, detail in by_depth.items():
                self.metrics.counter(f"sim.messages.depth{depth}").inc(
                    detail["messages"]
                )
                self.metrics.counter(f"sim.bytes.depth{depth}").inc(
                    detail["bytes"]
                )
                self.metrics.counter(f"sim.energy_mj.depth{depth}").inc(
                    detail["energy_mj"]
                )
        self.event(
            "collection_run",
            label=label,
            messages=messages,
            values=values,
            retries=retries,
            energy_mj=energy_mj,
            by_depth={str(d): dict(v) for d, v in (by_depth or {}).items()},
        )

    def record_batch_collection(
        self, label: str, *, epochs: int, messages: int, values: int,
        retries: int, energy_mj: float, seconds: float,
    ) -> None:
        """One batched collection phase: an entire trace evaluated in a
        single vectorized tree recursion.

        ``messages``/``values``/``retries``/``energy_mj`` are totals
        over the whole batch; the batch-size histogram plus the
        per-label timer are what the speedup benchmarks read back.
        """
        self.metrics.counter("sim.batch.collections").inc()
        self.metrics.counter(f"sim.batch.collections.{label}").inc()
        self.metrics.counter("sim.batch.epochs").inc(epochs)
        self.metrics.counter("sim.batch.messages").inc(messages)
        self.metrics.counter("sim.batch.values_sent").inc(values)
        self.metrics.counter("sim.batch.retries").inc(retries)
        self.metrics.counter("sim.batch.energy_mj").inc(energy_mj)
        self.metrics.histogram("sim.batch.size").observe(epochs)
        self.metrics.histogram(f"sim.batch.seconds.{label}").observe(seconds)
        self.event(
            "batch_collection_run",
            label=label,
            epochs=epochs,
            messages=messages,
            values=values,
            retries=retries,
            energy_mj=energy_mj,
            seconds=seconds,
        )

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


class _NullTimer:
    """Shared do-nothing context for the disabled-instrumentation path."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # fixed arity: cheaper to call than ``*exc_info`` packing
        return None


NULL_TIMER = _NullTimer()
"""The singleton no-op timer; proof that the disabled path allocates
nothing (tests assert identity against this object)."""


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


def timed(name: str, attr: str = "instrumentation"):
    """Decorate a method so its wall time lands in ``histogram(name)``.

    The owning object's ``attr`` attribute supplies the
    :class:`Instrumentation`; when it is ``None`` the method runs bare.
    """

    def decorate(method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            instrumentation = getattr(self, attr, None)
            if instrumentation is None:
                return method(self, *args, **kwargs)
            with instrumentation.timer(name):
                return method(self, *args, **kwargs)

        return wrapper

    return decorate
