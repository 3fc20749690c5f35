"""replan-churn: explore/exploit epochs with private, drifting windows.

An in-process :class:`~repro.service.server.TopKService` behind an
:class:`~repro.service.client.InProcessClient` hosts ``SESSIONS``
LP+LF sessions spread round-robin over ``TOPOLOGIES`` topologies.
Every session reads its own
drifting Gaussian field, so its sample window is private and the
shared plan cache misses almost every time.  One op is one
``StepEpoch`` (round-robin over the sessions, one request in flight):
the engine's adaptive sampler turns it into a sample epoch (a write
that drops the plan) or a query epoch (a read that re-plans when the
plan is missing or ``REPLAN_EVERY`` queries old).  Cheap epochs set
p50; epochs that plan set p90.  The timed window runs on one CPU
(:func:`common.one_cpu`), beside the host-speed probes that scale its
timings.

Correctness: every ``StepReply`` must equal the reply rebuilt from a
bare :class:`~repro.query.engine.TopKEngine` replay of the same
session stream, constructed the way the service builds its engines.

The traced run replays the same op stream one layer at a time:
``TopKService.handle``, bare ``TopKEngine.step`` (plain, then with an
:class:`~repro.obs.Instrumentation` whose ``plan``/``compile``/
``solve``/``round`` spans split the planner), and
``Simulator.run_collection`` on every query epoch's installed plan.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import (
    BenchmarkError,
    closed_loop,
    e2e_result,
    ledger_result,
    median_setup,
    one_cpu,
    peak_rss_mb,
)
from repro.datagen.gaussian import random_gaussian_field
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger, Instrumentation
from repro.planners.base import PlannerConfig
from repro.planners.lp_lf import LPLFPlanner
from repro.query.engine import EngineConfig, TopKEngine
from repro.service import messages as msg
from repro.service.cache import SharedPlanCache
from repro.service.client import InProcessClient
from repro.service.server import ServiceConfig, TopKService
from repro.simulation.runtime import Simulator

SESSIONS = 8
TOPOLOGIES = 4
"""Plan cost depends on the topology, so with one topology per run
throughput and CPU per epoch swung with the seed's topology; spreading
the sessions over four averages that out."""
N = 60
K = 5
BUDGET_MJ = 10.0
"""Low enough that plan accuracy stays under the sampler's target, so
its exploration rate sits at the maximum and the sample/query mix is a
steady coin flip rather than a feedback loop hovering at the target."""
WINDOW = 25
REPLAN_EVERY = 5
BOOTSTRAP = 5
"""Samples fed to every session in set-up, before the first epoch."""
DRIFT_SD = 0.3
"""Per-epoch random-walk step of every node's mean."""
ACCOUNTED_OPS = 1600
"""Ops every run covers; accuracy and energy average over exactly these."""
SETUP_REPEATS = 15
"""Set-up takes well under a second, so more repeats steady its median."""
TRACE_SHARE = 0.75
"""Share of ``--seconds`` the traced run's interleaved replay may take."""


class Streams:
    """The per-session drifting readings, derived from the run seed.

    Re-creating a ``Streams`` from the same seed replays the same
    readings, which is how the checks and the traced passes see
    exactly the inputs the timed window saw.
    """

    def __init__(self, seed: int) -> None:
        root = np.random.SeedSequence([seed, SESSIONS, N])
        self._rngs = [np.random.default_rng(c) for c in root.spawn(SESSIONS)]
        fields = [random_gaussian_field(N, rng) for rng in self._rngs]
        self._means = [f.means.copy() for f in fields]
        self._stds = [f.stds for f in fields]

    def next(self, session: int) -> np.ndarray:
        rng = self._rngs[session]
        self._means[session] += rng.normal(0.0, DRIFT_SD, N)
        return rng.normal(self._means[session], self._stds[session])


def _topologies(seed: int) -> list[Topology]:
    rng = np.random.default_rng([seed, 0x5EED])
    # sessions run on the registered copy (parents only), as the
    # service does
    return [
        Topology(random_topology(N, rng=rng).cache_token())
        for __ in range(TOPOLOGIES)
    ]


def _open_sessions(client, topologies, streams: Streams, count=SESSIONS):
    """Open ``count`` sessions, round-robin over ``topologies``, and
    feed each its bootstrap samples."""
    topology_ids = [client.register_topology(t) for t in topologies]
    handles = []
    for session in range(count):
        handle = client.open_session(
            topology_ids[session % len(topology_ids)],
            K,
            planner="lp-lf",
            budget_mj=BUDGET_MJ,
            window_capacity=WINDOW,
            replan_every=REPLAN_EVERY,
        )
        for __ in range(BOOTSTRAP):
            handle.feed(streams.next(session))
        handles.append(handle)
    return handles


def _service():
    return TopKService(ServiceConfig(max_sessions=SESSIONS))


def _setup(seed: int, topologies: list[Topology]):
    """One set-up: the service, its sessions and their bootstrap windows.

    A throwaway service first runs a few epochs so lazy imports and
    solver warm-up land in set-up, not in the first timed op.
    """
    warm_streams = Streams(seed + 1)
    (warm,) = _open_sessions(
        InProcessClient(_service()), topologies[:1], warm_streams, count=1
    )
    for __ in range(2 * REPLAN_EVERY):
        warm.step(warm_streams.next(0))
    streams = Streams(seed)
    client = InProcessClient(_service())
    handles = _open_sessions(client, topologies, streams)
    return (client, handles, streams), client.close


class BareEngines:
    """One bare engine per session, built the way
    ``TopKService.open_session`` builds them and fed the same bootstrap
    samples (taken from ``streams``)."""

    def __init__(self, topologies, streams: Streams, *, traced=False):
        energy = EnergyModel.mica2()
        defaults = ServiceConfig()
        cache = SharedPlanCache(
            capacity=defaults.cache_capacity,
            replan_capacity=defaults.replan_cache_capacity,
        )
        self.engines = []
        for seq in range(1, SESSIONS + 1):
            topology = topologies[(seq - 1) % len(topologies)]
            planner = LPLFPlanner(
                config=PlannerConfig(
                    replan_cache=cache.replan_cache, form_cache=cache
                )
            )
            engine = TopKEngine(
                topology,
                energy,
                k=K,
                planner=planner,
                config=EngineConfig(
                    budget_mj=BUDGET_MJ,
                    window_capacity=WINDOW,
                    replan_every=REPLAN_EVERY,
                ),
                rng=np.random.default_rng(seq),
                instrumentation=(
                    Instrumentation(span_capacity=1 << 20) if traced else None
                ),
                ledger=EnergyLedger(topology.n),
            )
            for __ in range(BOOTSTRAP):
                engine.feed_sample(streams.next(seq - 1))
            self.engines.append(engine)

    def step(self, session: int, readings):
        """One epoch: ``(StepReply, seconds, outcome)``."""
        engine = self.engines[session]
        started = time.perf_counter()
        outcome = engine.step(np.asarray(readings, dtype=float))
        elapsed = time.perf_counter() - started
        return _reply(f"s{session + 1:04d}", outcome), elapsed, outcome


def _reply(session_id: str, outcome) -> msg.StepReply:
    """The ``StepReply`` the service builds from an engine outcome."""
    result = outcome.result
    if result is None:
        return msg.StepReply(
            session_id=session_id,
            epoch=outcome.epoch,
            action=outcome.action,
            energy_mj=float(outcome.energy_mj),
        )
    accuracy = float(result.accuracy)
    return msg.StepReply(
        session_id=session_id,
        epoch=outcome.epoch,
        action=outcome.action,
        energy_mj=float(outcome.energy_mj),
        nodes=tuple(int(n) for __, n in result.returned),
        values=tuple(float(v) for v, __ in result.returned),
        accuracy=None if np.isnan(accuracy) else accuracy,
    )


def run(seed: int, seconds: float):
    topologies = _topologies(seed)
    (__, handles, streams), close, setup_s = median_setup(
        lambda: _setup(seed, topologies), SETUP_REPEATS
    )
    digests = []
    accounted = []

    def op(index: int) -> float:
        readings = streams.next(index % SESSIONS)
        started = time.perf_counter()
        reply = handles[index % SESSIONS].step(readings)
        elapsed = time.perf_counter() - started
        digests.append(hash(reply))
        if index < ACCOUNTED_OPS:
            accounted.append(reply)
        return elapsed

    with one_cpu():
        window = closed_loop(op, seconds, ACCOUNTED_OPS)
    rss = peak_rss_mb()
    close()

    streams = Streams(seed)
    bare = BareEngines(topologies, streams)
    failed = 0
    for index, digest in enumerate(digests):
        session = index % SESSIONS
        reply, __, __ = bare.step(session, streams.next(session))
        failed += digest != hash(reply)

    scores = [r.accuracy for r in accounted if r.accuracy is not None]
    return e2e_result(
        window,
        setup_s,
        rss,
        accuracy=statistics.fmean(scores),
        energy_mj=statistics.fmean(r.energy_mj for r in accounted),
        failed=failed,
        note=(
            f"replan-churn: {window.ops} epochs over {SESSIONS} sessions,"
            f" {failed} mismatches against the bare-engine replay"
        ),
    )


def _span_ms(spans, name: str) -> float:
    return sum(s.duration_s for s in spans if s.name == name) * 1e3


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def trace(seed: int, seconds: float):
    """The per-layer ledger: every op replayed through each layer in turn.

    Per op, in this order: the untraced client path, then
    ``TopKService.handle`` on a second service, plain bare engines,
    instrumented bare engines, and ``Simulator.run_collection`` on
    the installed plan of a query epoch.  Interleaving the passes op
    by op keeps slow drift (clock, caches) out of the differences.
    """
    topologies = _topologies(seed)
    (__, handles, streams), close = _setup(seed, topologies)
    service = _service()
    direct = _open_sessions(InProcessClient(service), topologies, Streams(seed))
    plain = BareEngines(topologies, Streams(seed))
    traced = BareEngines(topologies, Streams(seed), traced=True)
    sides = [
        Simulator(t, EnergyModel.mica2(), ledger=EnergyLedger(N))
        for t in topologies
    ]

    timings = {name: [] for name in ("op", "handle", "step", "traced")}
    collect_s = 0.0
    actions = []
    planned = []
    mismatches = 0

    def op(index: int) -> float:
        nonlocal collect_s, mismatches
        session = index % SESSIONS
        readings = streams.next(session)
        started = time.perf_counter()
        reply = handles[session].step(readings)
        elapsed = time.perf_counter() - started
        timings["op"].append(elapsed)

        request = msg.StepEpoch(
            session_id=direct[session].session_id, readings=readings
        )
        started = time.perf_counter()
        handled = service.handle(request)
        timings["handle"].append(time.perf_counter() - started)

        bare, step_s, __ = plain.step(session, readings)
        timings["step"].append(step_s)
        engine = traced.engines[session]
        roots = len(engine.instrumentation.spans.roots)
        instrumented, traced_s, outcome = traced.step(session, readings)
        timings["traced"].append(traced_s)
        planned.append(
            any(
                s.name == "plan"
                for root in engine.instrumentation.spans.roots[roots:]
                for s, __ in root.walk()
            )
        )
        if outcome.action == "query":
            started = time.perf_counter()
            sides[session % TOPOLOGIES].run_collection(
                engine.plan, np.asarray(readings, dtype=float)
            )
            collect_s += time.perf_counter() - started
        actions.append(outcome.action)
        mismatches += not (reply == handled == bare == instrumented)
        return elapsed

    window = closed_loop(op, seconds * TRACE_SHARE, 4 * SESSIONS)
    close()
    ops = window.ops
    if mismatches:
        raise BenchmarkError(
            f"replan-churn traced replay differs from the untraced run"
            f" on {mismatches} of {ops} epochs"
        )

    spans = [
        s
        for engine in traced.engines
        for s, __ in engine.instrumentation.spans.walk()
    ]
    plan_ms = _span_ms(spans, "plan")
    compile_ms = _span_ms(spans, "compile")
    solve_ms = _span_ms(spans, "solve")
    round_ms = _span_ms(spans, "round")
    plans = _count(spans, "plan")
    decisions = [s for s in spans if s.name == "replan.decide"]
    warm = sum(
        e.instrumentation.metrics.counter("lp.warm_starts").value
        for e in traced.engines
    )
    step_ms = statistics.fmean(timings["step"]) * 1e3
    collect_ms = collect_s * 1e3 / ops
    layer_ms = {
        # a per-request overhead under plan-time jitter: the median of
        # the paired differences estimates it without that noise
        "service.server": statistics.median(
            h - s for h, s in zip(timings["handle"], timings["step"])
        ) * 1e3,
        "query.engine": step_ms - plan_ms / ops - collect_ms,
        "planners.plan": (plan_ms - compile_ms - solve_ms - round_ms) / ops,
        "lp.compile": compile_ms / ops,
        "lp.solve": solve_ms / ops,
        "planners.round": round_ms / ops,
        "simulation.collect": collect_ms,
    }
    sample_s = [
        s for s, a in zip(timings["step"], actions) if a == "sample"
    ]
    query_s = [
        s
        for s, a, p in zip(timings["step"], actions, planned)
        if a == "query" and not p
    ]
    cache = service.cache.stats()
    extra = {
        "planners.plan.ms_per_call": plan_ms / max(plans, 1),
        "planners.round.ms_per_call": round_ms / max(_count(spans, "round"), 1),
        "lp.solve.ms_per_call": solve_ms / max(_count(spans, "solve"), 1),
        "lp.compile.ms_per_call": compile_ms / max(_count(spans, "compile"), 1),
        "planners.plans_per_op": plans / ops,
        "lp.warm_start_ratio": warm / max(_count(spans, "solve"), 1),
        "query.engine.sample_epoch.ms": _mean_ms(sample_s),
        "query.engine.query_epoch.ms": _mean_ms(query_s),
        "query.engine.replan_install_ratio": (
            sum(1 for s in decisions if s.attributes.get("installed"))
            / max(len(decisions), 1)
        ),
        "service.cache.hit_ratio": (
            cache["hits"] / max(cache["hits"] + cache["misses"], 1)
        ),
    }
    note = (
        f"replan-churn trace: {ops} epochs, {plans} plans,"
        f" {len(decisions)} replan decisions; shared plan cache"
        f" {cache['hits']} hits / {cache['misses']} misses"
    )
    return ledger_result(
        layer_ms,
        op_ms=statistics.fmean(window.latencies_s) * 1e3,
        untraced_ms=statistics.fmean(window.latencies_s) * 1e3,
        traced_over_untraced=(
            statistics.fmean(timings["traced"]) / statistics.fmean(timings["step"])
        ),
        extra=extra,
        attempted=ops,
        note=note,
    )


def _mean_ms(values) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0
