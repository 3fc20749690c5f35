"""Measurement helpers shared by the three workloads.

Everything here is benchmark-side plumbing: the closed-loop timer, the
host-speed probe that scales its timings, the process-accounting
readers, CPU pinning, the metric tables that ``run.py`` prints, and the
per-layer ledger the traced runs fill.  Nothing here calls into
``repro``.
"""

from __future__ import annotations

import bisect
import contextlib
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
"""Thread-pool variables the entry point pins to 1 before numpy loads."""

SETUP_REPEATS = 3
"""Set-ups per run; ``setup_s`` reports their median."""

END_TO_END_UNITS = {
    "throughput": "ops/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
    "accuracy": "ratio",
    "energy_mj": "mJ",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "cores": "count",
    "blas_threads": "count",
    "tracing.overhead_ratio": "ratio",
    "untraced.ms_per_op": "ms",
    "residual.ms_per_op": "ms",
    "datagen.ms_per_op": "ms",
    "sampling.ms_per_op": "ms",
    "experiments.runner.ms_per_op": "ms",
    "planners.plan.ms_per_op": "ms",
    "planners.greedy.ms_per_op": "ms",
    "planners.round.ms_per_op": "ms",
    "lp.compile.ms_per_op": "ms",
    "lp.solve.ms_per_op": "ms",
    "lp.warm_start_ratio": "ratio",
    "simulation.replay.ms_per_op": "ms",
    "simulation.exact.ms_per_op": "ms",
    "simulation.collect.ms_per_op": "ms",
    "query.engine.ms_per_op": "ms",
    "service.server.ms_per_op": "ms",
    "service.shard.ms_per_op": "ms",
    "service.wire.codec.ms_per_op": "ms",
    "service.wire.bytes_per_op": "bytes",
    "transport.ms_per_op": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.shard.max_session_share": "ratio",
    "planners.plan.ms_per_call": "ms",
    "planners.round.ms_per_call": "ms",
    "lp.solve.ms_per_call": "ms",
    "lp.compile.ms_per_call": "ms",
    "planners.plans_per_op": "count",
    "query.engine.sample_epoch.ms": "ms",
    "query.engine.query_epoch.ms": "ms",
    "query.engine.replan_install_ratio": "ratio",
}
"""Every per-layer metric, printed by every traced run.

``<layer>.ms_per_op`` is the layer's *self* time per workload op (its
time minus the timed layers it calls); the self times plus
``residual.ms_per_op`` add up to the op time the traced run decomposes
(printed as the ledger's total row).
``<layer>.ms_per_call`` is inclusive time per call.  A layer a
workload never calls reads 0.
"""

LEDGER_LAYERS = tuple(
    name[: -len(".ms_per_op")]
    for name in PER_LAYER_UNITS
    if name.endswith(".ms_per_op")
    and name not in ("untraced.ms_per_op", "residual.ms_per_op")
)
"""Layers whose self times make up one op, in ledger print order."""


class BenchmarkError(RuntimeError):
    """A traced run whose outputs differ from the untraced run's."""


def cores() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def one_cpu():
    """Run the block with this process and its workers on one CPU.

    A closed loop with one request in flight has one runnable thread at
    a time, so one CPU serves it.  Keeping the client and the service
    workers there takes cross-CPU wake-ups, whose latency swings with
    whatever else the host runs, out of every request, and the
    host-speed probes then run on the CPU the ops ran on.  Every existing
    thread is moved (threads start with their creator's CPU set, so
    ones started inside the block follow); the CPU sets are restored
    on exit.
    """
    allowed = os.sched_getaffinity(0)
    threads = [
        int(tid) for pid in _pids() for tid in os.listdir(f"/proc/{pid}/task")
    ]
    for tid in threads:
        os.sched_setaffinity(tid, {min(allowed)})
    try:
        yield
    finally:
        for tid in threads:
            try:
                os.sched_setaffinity(tid, allowed)
            except ProcessLookupError:  # the thread has ended
                pass


def blas_threads() -> int:
    """The pinned BLAS/OpenMP pool size (the entry point sets all three)."""
    values = {int(os.environ.get(name, "0") or 0) for name in BLAS_ENV}
    return values.pop() if len(values) == 1 else 0


# -- process accounting ----------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _worker_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def _pids() -> list[int]:
    return [os.getpid(), *_worker_pids()]


def peak_rss_mb() -> float:
    """Summed ``VmHWM`` of this process and its live worker processes.

    ``ru_maxrss`` of children only covers reaped ones, so the live
    workers are read from ``/proc`` before they are shut down.
    """
    total_kb = 0
    for pid in _pids():
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_seconds() -> float:
    """User+system CPU of this process and its live worker processes."""
    ticks = 0
    for pid in _pids():
        with open(f"/proc/{pid}/stat") as stat:
            # the command name may hold spaces; fields resume after ')'
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICKS


# -- host speed ---------------------------------------------------------------

REFERENCE_MS = 10.0
"""Nominal wall time of one reference-work call.  Every timing the
untraced runs report is scaled to a host on which the reference work
takes this long (see :class:`HostSpeed`)."""
PROBE_EVERY_S = 0.2
"""Window time per host-speed probe: about 4% of a window goes to probes."""
MAX_PROBES = 5
"""Most probes taken between two ops."""
PROBE_SPAN_S = 0.5
"""An op's latency is scaled by the probes this close to its end."""
SETUP_PROBES = 3
"""Probes taken right before and right after each set-up."""


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


class HostSpeed:
    """Times a fixed reference work to measure the host's current speed.

    The benchmark shares a host whose CPU speed swings by half or more
    over tens of seconds with what its neighbours run; a probe taken
    beside the work being timed slows down with it.  A measured time
    ``t`` next to probes of median ``r`` is reported as
    ``t * REFERENCE_MS / r``: the time the same work would take on a
    host where the reference takes ``REFERENCE_MS``.  Raw times are
    printed beside the scaled ones.

    The reference touches nothing of ``repro``.  It mixes the kinds of
    work the workloads do: a small HiGHS linear program through scipy,
    Python object churn (allocate, sort by attribute, sum) and
    small-array numpy.  Over 20-second stretches on a 2-vCPU host the
    mix's time moved about one for one with the workloads' (log-log
    slope 0.95-1.0), where pure interpreter or numpy loops swung about
    1.5 times as much as the workloads and the LP alone tracked them
    less closely.
    """

    def __init__(self) -> None:
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self._linprog = linprog
        self._cost = -rng.random(80)
        self._rows = rng.random((40, 80))
        self._caps = rng.random(40) * 20.0
        self._matrix = rng.standard_normal((60, 60))
        self._vector = rng.standard_normal(60)
        self.probe()  # the first call pays lazy set-up

    def _reference_work(self) -> None:
        import numpy as np

        solved = self._linprog(
            self._cost, A_ub=self._rows, b_ub=self._caps, bounds=(0, 1),
            method="highs",
        )
        if solved.status != 0:
            raise BenchmarkError("host-speed reference LP did not solve")
        items = [_Item(i, (i * 7919) % 3001) for i in range(3000)]
        items.sort(key=lambda item: item.value)
        sum(item.key for item in items)
        x = self._vector
        for __ in range(150):
            x = np.tanh(self._matrix @ x * 0.1)
            x = x[np.argsort(x)] + np.sum(x) / x.size

    def probe(self) -> tuple[float, float]:
        """One reference run: ``(wall seconds, this process's CPU seconds)``."""
        wall, cpu = time.perf_counter(), time.process_time()
        self._reference_work()
        return time.perf_counter() - wall, time.process_time() - cpu


def speed_scale(walls: list[float]) -> float:
    """The factor that maps times measured next to probes of these wall
    seconds to reference host speed."""
    return REFERENCE_MS / (statistics.median(walls) * 1e3)


# -- closed loop -------------------------------------------------------------


SEGMENTS = 20
"""Segments a timed window is cut into; rates are medians over them."""


@dataclass
class Segment:
    """One stretch of a window: its ops, the wall and CPU seconds they
    took (probes left out), and the host-speed factor probed in it."""

    ops: int
    wall_s: float
    cpu_s: float
    scale: float


@dataclass
class Window:
    """One timed closed-loop window: per-op raw latencies and end
    times, the probes taken in it, and its segments."""

    latencies_s: list[float] = field(default_factory=list)
    ended_at: list[float] = field(default_factory=list)
    probe_at: list[float] = field(default_factory=list)
    probe_wall_s: list[float] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    def scaled_latencies_ms(self) -> list[float]:
        """Op latencies in ms at reference host speed, each scaled by
        the probes within ``PROBE_SPAN_S`` of the op's end."""
        scaled = []
        for latency, ended in zip(self.latencies_s, self.ended_at):
            lo = bisect.bisect_left(self.probe_at, ended - PROBE_SPAN_S)
            hi = bisect.bisect_right(self.probe_at, ended + PROBE_SPAN_S)
            if lo == hi:  # no probe that close: take the nearest one
                lo = min(lo, len(self.probe_at) - 1)
                hi = lo + 1
            scale = speed_scale(self.probe_wall_s[lo:hi])
            scaled.append(latency * 1e3 * scale)
        return scaled

    def throughput(self, raw: bool = False) -> float:
        """Median over segments of ops per wall second (at reference
        host speed unless ``raw``)."""
        return statistics.median(
            seg.ops / (seg.wall_s * (1.0 if raw else seg.scale))
            for seg in self.segments
        )

    def cpu_ms_per_op(self, raw: bool = False) -> float:
        """Median over segments of CPU milliseconds per op (at
        reference host speed unless ``raw``)."""
        return statistics.median(
            seg.cpu_s * 1e3 * (1.0 if raw else seg.scale) / seg.ops
            for seg in self.segments
        )

    def median_scale(self) -> float:
        return statistics.median(seg.scale for seg in self.segments)


def closed_loop(op, seconds: float, min_ops: int) -> Window:
    """Call ``op(index)`` back to back, one in flight, and time each call.

    Runs until ``seconds`` have passed *and* at least ``min_ops`` ops
    completed (the accounted prefix every run must cover).  ``op``
    returns the wall seconds of its timed region, so input preparation
    the op does first stays out of its latency (it still counts toward
    the window's wall time, and so toward throughput).  The window is
    cut into segments of about ``seconds / SEGMENTS``, each closed after
    the op that crosses its end, so rates can be taken as medians that
    a burst of host noise in one segment does not move.

    Between ops, :class:`HostSpeed` probes run about once per
    ``PROBE_EVERY_S`` of window time (several after a long op, and
    always one at a segment's end).  Their time is left out of the
    segment's wall and CPU time; the median probe of a segment scales
    that segment's rates, and the probes near each op scale its
    latency.
    """
    speed = HostSpeed()
    window = Window()
    step = seconds / SEGMENTS
    index = 0
    start = segment_start = last_probe = time.perf_counter()
    cpu_start = cpu_seconds()
    segment_ops = 0
    segment_walls: list[float] = []
    probe_wall = probe_cpu = 0.0
    deadline = start + seconds
    while True:
        window.latencies_s.append(op(index))
        now = time.perf_counter()
        window.ended_at.append(now)
        index += 1
        segment_ops += 1
        done = index >= min_ops and now >= deadline
        closing = done or now - segment_start >= step
        due = min(int((now - last_probe) / PROBE_EVERY_S), MAX_PROBES)
        for __ in range(max(due, closing)):
            wall, cpu = speed.probe()
            window.probe_at.append(time.perf_counter())
            window.probe_wall_s.append(wall)
            segment_walls.append(wall)
            probe_wall += wall
            probe_cpu += cpu
            last_probe = window.probe_at[-1]
        if closing:
            now = time.perf_counter()
            cpu_now = cpu_seconds()
            window.segments.append(
                Segment(
                    segment_ops,
                    now - segment_start - probe_wall,
                    cpu_now - cpu_start - probe_cpu,
                    speed_scale(segment_walls),
                )
            )
            segment_start, cpu_start, segment_ops = now, cpu_now, 0
            segment_walls, probe_wall, probe_cpu = [], 0.0, 0.0
            last_probe = now
        if done:
            return window


def median_setup(setup, repeats: int = SETUP_REPEATS):
    """Run ``setup()`` ``repeats`` times; keep the last system.

    ``setup`` returns ``(system, close)``; every system but the last is
    closed right away.  ``SETUP_PROBES`` host-speed probes run before
    and after each set-up, and the median of all of them scales the
    median set-up time.  Returns ``(system, close, (scaled seconds,
    raw seconds))``.
    """
    speed = HostSpeed()
    raw, walls = [], []
    close = None
    for __ in range(repeats):
        if close is not None:
            close()
        walls += [speed.probe()[0] for __ in range(SETUP_PROBES)]
        started = time.perf_counter()
        system, close = setup()
        raw.append(time.perf_counter() - started)
        walls += [speed.probe()[0] for __ in range(SETUP_PROBES)]
    median = statistics.median(raw)
    return system, close, (median * speed_scale(walls), median)


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """What one benchmark run prints: named metrics plus check counts."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _p50_p90(values: list[float]) -> tuple[float, float]:
    return (
        statistics.median(values),
        statistics.quantiles(values, n=10, method="inclusive")[8],
    )


def e2e_result(
    window: Window,
    setup_s: tuple[float, float],
    rss_mb: float,
    accuracy: float,
    energy_mj: float,
    failed: int,
    note: str,
) -> Result:
    """The nine end-to-end metrics of one untraced run.

    ``setup_s`` is ``(scaled, raw)`` as :func:`median_setup` gives it.
    Timings are at reference host speed (:class:`HostSpeed`); a note
    line prints the raw ones and the host's speed factor.
    ``failed`` counts ops whose output failed a check (plus any failed
    run-level check); ``success_rate`` is its complement over the ops.
    """
    p50, p90 = _p50_p90(window.scaled_latencies_ms())
    raw_p50, raw_p90 = _p50_p90([s * 1e3 for s in window.latencies_s])
    metrics = {
        "throughput": window.throughput(),
        "p50_ms": p50,
        "p90_ms": p90,
        "setup_s": setup_s[0],
        "peak_rss_mb": rss_mb,
        "cpu_ms_per_op": window.cpu_ms_per_op(),
        "accuracy": accuracy,
        "energy_mj": energy_mj,
        "success_rate": 1.0 - failed / window.ops,
    }
    raw = (
        f"raw (unscaled): throughput = {window.throughput(raw=True):.6g} ops/s,"
        f" p50_ms = {raw_p50:.6g}, p90_ms = {raw_p90:.6g},"
        f" setup_s = {setup_s[1]:.6g},"
        f" cpu_ms_per_op = {window.cpu_ms_per_op(raw=True):.6g};"
        f" median host-speed factor {window.median_scale():.4f}"
        f" (reference work {REFERENCE_MS / window.median_scale():.3f} ms,"
        f" nominal {REFERENCE_MS:g} ms)"
    )
    return Result(window.ops, failed, metrics, END_TO_END_UNITS, [note, raw])


def ledger_result(
    layer_ms: dict[str, float],
    op_ms: float,
    untraced_ms: float,
    traced_over_untraced: float,
    extra: dict[str, float],
    attempted: int,
    note: str,
) -> Result:
    """Every per-layer metric for one traced run.

    ``layer_ms`` maps ledger layers to self ms per op; layers the
    workload never calls read 0.  ``op_ms`` is the op time the layers
    decompose, and the residual is the part of it no timed layer call
    covers.  ``untraced_ms`` is the same op with nothing traced.  A
    traced run whose outputs differ raises instead of returning.
    """
    unknown = set(layer_ms) - set(LEDGER_LAYERS)
    unknown |= set(extra) - set(PER_LAYER_UNITS)
    if unknown:
        raise BenchmarkError(f"unknown per-layer metrics {sorted(unknown)}")
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer, value in layer_ms.items():
        metrics[f"{layer}.ms_per_op"] = value
    metrics.update(extra)
    metrics["cores"] = float(cores())
    metrics["blas_threads"] = float(blas_threads())
    metrics["untraced.ms_per_op"] = untraced_ms
    metrics["residual.ms_per_op"] = op_ms - sum(layer_ms.values())
    metrics["tracing.overhead_ratio"] = traced_over_untraced - 1.0
    return Result(
        attempted, 0, metrics, PER_LAYER_UNITS, [note, *ledger_table(metrics, op_ms)]
    )


def ledger_table(metrics: dict[str, float], total: float) -> list[str]:
    """The human-readable ledger: one row per layer, residual explicit."""
    ncores = int(metrics["cores"])
    lines = [f"{'layer':<24} {'self ms/op':>12} {'share':>7} {'cores':>6}"]
    rows = [
        (layer, metrics[f"{layer}.ms_per_op"])
        for layer in LEDGER_LAYERS
        if metrics[f"{layer}.ms_per_op"]
    ]
    rows.append(("residual", metrics["residual.ms_per_op"]))
    rows.append(("total (decomposed op)", total))
    for layer, value in rows:
        share = value / total if total else 0.0
        lines.append(
            f"{layer:<24} {value:>12.4f} {share:>7.1%} {ncores:>6d}"
        )
    lines.append(
        f"untraced op: {metrics['untraced.ms_per_op']:.4f} ms; tracing"
        f" overhead {metrics['tracing.overhead_ratio']:+.1%} ({ncores} cores)"
    )
    return lines
