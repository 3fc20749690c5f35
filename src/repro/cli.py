"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig3
    python -m repro run fig5 --out /tmp/fig5.txt
    python -m repro run all
    python -m repro stats --demo
    python -m repro stats --demo --json --out /tmp/stats.json
    python -m repro stats --demo --service
    python -m repro trace --demo
    python -m repro trace --demo --service
    python -m repro trace --demo --chrome /tmp/trace.json --prom /tmp/metrics.prom
    python -m repro serve --port 7690
    python -m repro serve --workers 4 --grace 10
    python -m repro serve --workers 4 --telemetry-port 7691
    python -m repro top --port 7691
    python -m repro top --url http://127.0.0.1:7691 --once

With ``--service`` the demo runs through a live in-process
multi-tenant service (two sessions sharing one compiled plan), so the
reported spans include ``service.request``, the ``service.cache.*``
counters, and — after a short socket exchange — the
``service.wire.*`` connection counter and bytes-per-request
histograms; ``serve`` exposes the same service over a socket speaking
the binary wire protocol (:mod:`repro.service.wire`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.experiments import (
    fig3_comparison,
    fig4_variance,
    fig5_zones,
    fig7_num_zones,
    fig8_exact,
    fig9_intel,
    lp_timing,
    sample_size,
)
from repro.experiments.reporting import ascii_chart, format_table

EXPERIMENTS: dict[str, tuple[Callable[[], list[dict]], str]] = {
    "fig3": (fig3_comparison.run, "Figure 3: comparison of algorithms"),
    "fig4": (fig4_variance.run, "Figure 4: effect of variance"),
    "fig5": (fig5_zones.run, "Figure 5: contention zones"),
    "fig7": (fig7_num_zones.run, "Figure 7: varying the number of zones"),
    "fig8": (fig8_exact.run, "Figure 8: PROSPECTOR-Exact phase breakdown"),
    "fig9": (fig9_intel.run, "Figure 9: Intel Lab surrogate"),
    "samples": (sample_size.run, "Sample-size study (§5 'Other Results')"),
    "lptime": (lp_timing.run, "LP solve-time study (§5 'Other Results')"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Sampling-Based Approach to Optimizing"
            " Top-k Queries in Sensor Networks' (ICDE 2006)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (see 'list')",
    )
    run.add_argument(
        "--out",
        default=None,
        help="also write the table(s) to this file",
    )
    run.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII accuracy-vs-energy chart when applicable",
    )

    stats = subparsers.add_parser(
        "stats",
        help="observability report of an instrumented run (repro.obs)",
    )
    stats.add_argument(
        "--demo",
        action="store_true",
        help=(
            "run a small instrumented fig3-style sweep plus an engine"
            " loop and report its metrics"
        ),
    )
    stats.add_argument(
        "--epochs",
        type=int,
        default=12,
        help="engine epochs for the demo run (default 12)",
    )
    stats.add_argument(
        "--nodes",
        type=int,
        default=24,
        help="network size for the demo run (default 24)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the raw metrics/spans dump as JSON instead of tables",
    )
    stats.add_argument(
        "--out",
        default=None,
        help="also write the report to this file",
    )
    stats.add_argument(
        "--service",
        action="store_true",
        help=(
            "route the demo through a live in-process multi-tenant"
            " service (two sessions, shared plan cache)"
        ),
    )

    trace = subparsers.add_parser(
        "trace",
        help="span tree + energy telemetry of an instrumented demo run",
    )
    trace.add_argument(
        "--demo",
        action="store_true",
        help="run the instrumented demo (same pipeline as 'stats --demo')",
    )
    trace.add_argument(
        "--epochs", type=int, default=12,
        help="engine epochs for the demo run (default 12)",
    )
    trace.add_argument(
        "--nodes", type=int, default=24,
        help="network size for the demo run (default 24)",
    )
    trace.add_argument(
        "--capacity",
        type=float,
        default=200.0,
        help="per-node battery capacity in mJ for lifetime projection"
        " (default 200)",
    )
    trace.add_argument(
        "--chrome",
        default=None,
        help="write a Chrome trace-event JSON (load in ui.perfetto.dev)",
    )
    trace.add_argument(
        "--prom",
        default=None,
        help="write the metrics in Prometheus text exposition format",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="also write the flame/energy report to this file",
    )
    trace.add_argument(
        "--service",
        action="store_true",
        help=(
            "route the demo through a live in-process multi-tenant"
            " service (two sessions, shared plan cache)"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "host the multi-tenant top-k query service (binary wire"
            " protocol over TCP)"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default localhost)"
    )
    serve.add_argument(
        "--port", type=int, default=7690,
        help="TCP port (default 7690; 0 picks a free port)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=16,
        help="admission-control cap on concurrent open sessions",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="per-session pending-request bound before shedding",
    )
    serve.add_argument(
        "--session-ttl", type=float, default=300.0,
        help="idle seconds before a session expires (default 300)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes; >1 hosts a sharded service (one port per"
            " worker, sessions routed by content hash)"
        ),
    )
    serve.add_argument(
        "--grace", type=float, default=5.0,
        help=(
            "graceful-shutdown window in seconds: in-flight requests"
            " get their final replies before the listener dies"
        ),
    )
    serve.add_argument(
        "--artifact-dir", default=None,
        help=(
            "directory for the cross-process compiled-plan artifact"
            " store (sharded mode defaults to a private tempdir)"
        ),
    )
    serve.add_argument(
        "--telemetry-port", type=int, default=None,
        help=(
            "also expose the live telemetry HTTP endpoint on this port"
            " (0 picks a free one): /metrics Prometheus exposition,"
            " /trace merged Chrome trace, /exemplars slowest requests,"
            " /json the dashboard 'repro top' polls"
        ),
    )

    top = subparsers.add_parser(
        "top",
        help="live per-shard dashboard of a served fleet (qps/p99/cache)",
    )
    top.add_argument(
        "--url", default=None,
        help="telemetry base URL (e.g. http://127.0.0.1:7691)",
    )
    top.add_argument(
        "--host", default="127.0.0.1",
        help="telemetry host when using --port (default localhost)",
    )
    top.add_argument(
        "--port", type=int, default=None,
        help="telemetry port (what serve --telemetry-port bound)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (no screen refresh)",
    )
    return parser


def _stats_demo(
    epochs: int = 12,
    nodes: int = 24,
    k: int = 5,
    seed: int = 7,
    capacity_mj: float = 200.0,
):
    """A small instrumented run: a fig3-style planner sweep plus an
    engine explore/exploit loop, all feeding one Instrumentation.

    Returns ``(obs, ledger)``.  The run is wrapped in a root ``run``
    span with contiguous ``phase.*`` child spans (setup, plan sweep,
    engine loop) so the exported span tree shows where the wall time
    went; the engine's simulator charges a per-node
    :class:`~repro.obs.EnergyLedger` whose headline numbers are
    published back into the metrics registry.  The trailing ``None``
    mirrors :func:`_service_demo`'s stats counters slot.
    """
    import numpy as np

    from repro.datagen.gaussian import random_gaussian_field
    from repro.experiments.common import evaluate_planner
    from repro.network.builder import random_topology
    from repro.network.energy import EnergyModel
    from repro.obs import EnergyLedger, Instrumentation
    from repro.planners.greedy import GreedyPlanner
    from repro.planners.lp_lf import LPLFPlanner
    from repro.planners.lp_no_lf import LPNoLFPlanner
    from repro.query.engine import EngineConfig, TopKEngine

    obs = Instrumentation()
    ledger = EnergyLedger(nodes, capacity_mj=capacity_mj)
    with obs.span("run", epochs=epochs, nodes=nodes, k=k):
        with obs.span("phase.setup"):
            rng = np.random.default_rng(seed)
            energy = EnergyModel.mica2()
            # widen the radio range as the network shrinks so sparse
            # demo instances stay connectable (same rule as the
            # lp-timing study)
            radio_range = max(25.0, 200.0 / nodes**0.5)
            topology = random_topology(
                nodes, rng=rng, radio_range=radio_range
            )
            field = random_gaussian_field(nodes, rng)
            train = field.trace(8, rng)
            eval_trace = field.trace(4, rng)
            budget = energy.message_cost(1) * 2.5 * k

        with obs.span("phase.plan_sweep"):
            for planner in (GreedyPlanner(), LPNoLFPlanner(), LPLFPlanner()):
                evaluate_planner(
                    planner, topology, energy, train, eval_trace, k, budget,
                    instrumentation=obs,
                )

        with obs.span("phase.engine"):
            engine = TopKEngine(
                topology,
                energy,
                k=k,
                planner=LPLFPlanner(),
                config=EngineConfig(budget_mj=budget, replan_every=3),
                rng=np.random.default_rng(seed + 1),
                instrumentation=obs,
                ledger=ledger,
            )
            for __ in range(3):
                engine.feed_sample(field.sample(rng))
            for __ in range(epochs):
                engine.step(field.sample(rng))
    ledger.publish(obs)
    return obs, ledger, None


def _service_demo(
    epochs: int = 12,
    nodes: int = 24,
    k: int = 5,
    seed: int = 7,
    capacity_mj: float = 200.0,
    sessions: int = 2,
):
    """The demo run routed through a live in-process service.

    Same shape as :func:`_stats_demo` but multi-tenant: ``sessions``
    clients share one registered topology and one
    :class:`~repro.service.cache.SharedPlanCache`, so the resulting
    span tree shows ``service.request`` handling and (at most) one
    ``compile`` span per distinct sample window.  Returns
    ``(obs, ledger, stats_counters)`` with the first session's
    per-node ledger and the final :class:`GetStats` counters (wire
    requests and bytes) for the per-shard report section.
    """
    import numpy as np

    from repro.datagen.gaussian import random_gaussian_field
    from repro.network.builder import random_topology
    from repro.obs import Instrumentation
    from repro.service.client import InProcessClient
    from repro.service.server import ServiceConfig, TopKService

    obs = Instrumentation()
    service = TopKService(
        ServiceConfig(ledger_capacity_mj=capacity_mj),
        instrumentation=obs,
    )
    client = InProcessClient(service)
    with obs.span(
        "run", epochs=epochs, nodes=nodes, k=k, sessions=sessions
    ):
        with obs.span("phase.setup"):
            rng = np.random.default_rng(seed)
            radio_range = max(25.0, 200.0 / nodes**0.5)
            topology = random_topology(
                nodes, rng=rng, radio_range=radio_range
            )
            field = random_gaussian_field(nodes, rng)
            budget = service.energy.message_cost(1) * 2.5 * k
            topology_id = client.register_topology(topology)
            warmup = [field.sample(rng) for __ in range(3)]

        with obs.span("phase.sessions"):
            handles = [
                client.open_session(
                    topology_id, k, budget_mj=budget, replan_every=3
                )
                for __ in range(sessions)
            ]
            # identical warmup windows: the second session's first plan
            # is a pure shared-cache hit (zero compile work)
            for handle in handles:
                for row in warmup:
                    handle.feed(row)

        with obs.span("phase.load"):
            for __ in range(epochs):
                row = field.sample(rng)
                for handle in handles:
                    handle.step(row)
            client.stats()

        with obs.span("phase.wire"):
            # a short socket exchange so the report carries live
            # service.wire.* metrics: the connection counter and the
            # bytes-per-request histograms
            from repro.service.client import SocketClient
            from repro.service.server import ServiceThread

            matrix = np.array([field.sample(rng) for __ in range(4)])
            with ServiceThread(service) as live:
                with SocketClient(live.host, live.port) as socket_client:
                    handle = socket_client.open_session(
                        topology_id, k, budget_mj=budget
                    )
                    for row in warmup:
                        handle.feed(row)
                    handle.query_batch(matrix)
                    socket_client.stats()

    ledger = service.ledger_of(handles[0].session_id)
    ledger.publish(obs)
    return obs, ledger, client.stats().counters


def _energy_section(ledger) -> str:
    """ASCII rendering of the ledger's headline telemetry."""
    from repro.experiments.reporting import format_table

    lines = [format_table(ledger.hottest(5), title="hottest nodes")]
    if ledger.capacity_mj is not None and ledger.num_epochs:
        burn = ledger.burn_down()
        lines.append(
            "burn-down (worst-node remaining fraction): "
            + " ".join(f"{fraction:.3f}" for fraction in burn)
        )
        death = ledger.lifetime_epoch()
        projected = ledger.projected_lifetime()
        lines.append(
            "network lifetime: "
            + (
                f"first node died during epoch {death}"
                if death is not None
                else "no node death observed"
            )
            + (
                f"; projected first death after {projected:.0f} epochs"
                f" at the observed burn rate"
                if projected is not None
                else ""
            )
        )
    title = "energy ledger"
    return "\n".join([title, "-" * len(title)] + lines)


def _wire_section(counters: dict) -> str:
    """Per-shard wire request and byte totals.

    Accepts either a sharded ``GetStats`` counters dict (with a
    ``per_shard`` map) or a single service's counters (rendered as
    shard ``0``), so the same report works for both deployments.
    """
    per_shard = counters.get("per_shard") or {"0": counters}
    rows = []
    for shard in sorted(per_shard, key=lambda s: (len(s), s)):
        shard_counters = per_shard[shard] or {}
        wire = shard_counters.get("wire") or {}
        rows.append(
            {
                "shard": shard,
                "requests": wire.get("requests", 0),
                "request_bytes": wire.get("request_bytes", 0),
                "reply_bytes": wire.get("reply_bytes", 0),
            }
        )
    return format_table(rows, title="wire per shard")


def _run_one(name: str, chart: bool = False) -> str:
    run_fn, title = EXPERIMENTS[name]
    rows = run_fn()
    text = format_table(rows, title=title)
    if chart:
        numeric = [
            r for r in rows
            if isinstance(r.get("energy_mj"), (int, float))
            and isinstance(r.get("accuracy"), (int, float))
        ]
        if numeric:
            series = "algorithm" if "algorithm" in numeric[0] else None
            text += "\n\n" + ascii_chart(
                numeric, x="energy_mj", y="accuracy", series=series,
                title=f"{title} (chart)",
            )
    return text


def _serve_command(args) -> int:
    """Host the binary-wire socket service until interrupted.

    Each accepted connection gets its own thread, which reads, answers
    and replies to that connection's frames.  SIGTERM (and Ctrl-C)
    triggers a graceful shutdown: the listener closes, draining
    sessions refuse new work, and requests already in flight get their
    final replies within ``--grace`` seconds.
    """
    import signal
    import threading

    from repro.service.server import ServiceConfig, TopKService, serve

    def wait_for_signal() -> None:
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *__: stop.set())
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass

    config = ServiceConfig(
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        session_ttl_s=args.session_ttl,
        artifact_dir=args.artifact_dir,
    )

    if args.workers > 1:
        from repro.service.shard import ShardedService

        sharded = ShardedService(
            args.workers,
            config,
            host=args.host,
            artifact_dir=args.artifact_dir,
            telemetry_port=args.telemetry_port,
            grace_seconds=args.grace,
        )
        with sharded:
            ports = ", ".join(str(port) for __, port in sharded.endpoints)
            print(
                f"repro sharded service: {args.workers} workers"
                f" on {args.host} ports {ports}"
            )
            if sharded.telemetry is not None:
                print(f"telemetry endpoint: {sharded.telemetry.url('')}")
            wait_for_signal()
        print("service stopped")
        return 0

    instrumentation = None
    if args.telemetry_port is not None:
        from repro.obs import Instrumentation

        instrumentation = Instrumentation(span_mode="ring")
    service = TopKService(config, instrumentation=instrumentation)
    telemetry = None
    if args.telemetry_port is not None:
        from repro.obs import LocalTelemetrySource, TelemetryServer

        telemetry = TelemetryServer(
            LocalTelemetrySource(service),
            host=args.host,
            port=args.telemetry_port,
        ).start()
        print(f"telemetry endpoint: {telemetry.url('')}")
    try:
        server = serve(service, args.host, args.port)
        host, port = server.address
        print(f"repro service listening on {host}:{port}")
        wait_for_signal()
        print(f"draining (grace {args.grace:.0f}s)...")
        server.shutdown(args.grace)
    finally:
        if telemetry is not None:
            telemetry.stop()
    print("service stopped")
    return 0


def _top_command(args) -> int:
    """Poll a telemetry endpoint's ``/json`` and render the dashboard."""
    import json
    import time
    import urllib.request

    from repro.obs import render_top

    if args.url:
        base = args.url.rstrip("/")
    elif args.port is not None:
        base = f"http://{args.host}:{args.port}"
    else:
        print(
            "top needs --url or --port (what serve --telemetry-port bound)",
            file=sys.stderr,
        )
        return 2
    while True:
        try:
            with urllib.request.urlopen(base + "/json", timeout=10) as resp:
                payload = json.load(resp)
        except (OSError, ValueError) as err:
            print(f"telemetry endpoint unreachable: {err}", file=sys.stderr)
            return 1
        text = render_top(payload.get("rows", []))
        if args.once:
            print(text)
            return 0
        # clear screen + home, like top(1)
        print(f"\x1b[2J\x1b[Hrepro top — {base}\n\n{text}", flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "top":
        return _top_command(args)

    if args.command == "stats":
        if not args.demo:
            parser.error("stats requires --demo (no live run to report on)")
        from repro.obs import render_report, to_json

        demo = _service_demo if args.service else _stats_demo
        obs, ledger, stats_counters = demo(
            epochs=args.epochs, nodes=args.nodes
        )
        title = (
            "repro stats (service demo run)"
            if args.service
            else "repro stats (demo run)"
        )
        text = (
            to_json(obs)
            if args.json
            else render_report(obs, title=title)
            + "\n\n"
            + _energy_section(ledger)
        )
        if not args.json and stats_counters is not None:
            text += "\n\n" + _wire_section(stats_counters)
        print(text)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        return 0

    if args.command == "trace":
        if not args.demo:
            parser.error("trace requires --demo (no live run to trace)")
        from repro.obs import chrome_trace_json, prometheus_text, render_flame

        demo = _service_demo if args.service else _stats_demo
        obs, ledger, __ = demo(
            epochs=args.epochs, nodes=args.nodes, capacity_mj=args.capacity
        )
        text = render_flame(obs) + "\n\n" + _energy_section(ledger)
        print(text)
        if args.chrome:
            with open(args.chrome, "w") as handle:
                handle.write(chrome_trace_json(obs))
            print(f"\nwrote Chrome trace to {args.chrome}")
        if args.prom:
            with open(args.prom, "w") as handle:
                handle.write(prometheus_text(obs))
            print(f"wrote Prometheus exposition to {args.prom}")
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        return 0

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (__, title) in sorted(EXPERIMENTS.items()):
            print(f"{name.ljust(width)}  {title}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    outputs = []
    for name in names:
        text = _run_one(name, chart=args.chart)
        print(text)
        print()
        outputs.append(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n\n".join(outputs) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
