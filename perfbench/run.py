"""The repository benchmark: one command, three workloads, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
Its timings are scaled to a reference host speed, probed beside the
work as it runs (``common.HostSpeed``); the raw timings are printed
on a line of their own.
``--trace 1`` is the separate traced run that replays the workload's
inputs one layer at a time and prints the per-layer ledger.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Workloads and the reason each exists are listed in
``BENCHMARK.json`` at the repository root.

The BLAS and OpenMP thread pools are pinned to one thread here, before
numpy is imported, so spawned service workers inherit the setting.
Temporary files (the sharded service's artifact store) go under
``.perfbench_tmp`` in the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = {
    "fig3-sweep": "fig3_sweep",
    "served-query": "served_query",
    "replan-churn": "replan_churn",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_result(result) -> None:
    for line in result.notes:
        print(line)
    for name, value in result.metrics.items():
        print(f"{name} = {value:.6g} {result.units[name]}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    import common

    for name in common.BLAS_ENV:
        os.environ[name] = "1"
    TMP.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    sys.path.insert(0, str(SRC))

    workload = importlib.import_module(WORKLOADS[args.workload])
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace} cores={common.cores()}"
        f" blas_threads={common.blas_threads()}"
        f" ({'/'.join(common.BLAS_ENV)}=1)"
    )
    measure = workload.trace if args.trace else workload.run
    try:
        result = measure(args.seed, args.seconds)
    except common.BenchmarkError as err:
        print(f"perfbench: FAILED: {err}", file=sys.stderr)
        return 1
    finally:
        _stop_resource_tracker()
    _print_result(result)
    return 0


def _stop_resource_tracker() -> None:
    """End and reap the helper process spawned workers leave behind.

    Starting a process with the ``spawn`` method also starts
    multiprocessing's resource tracker; it would otherwise outlive
    this process by a moment instead of being waited for.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
