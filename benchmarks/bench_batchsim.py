"""Batched simulation benchmark (ISSUE acceptance numbers).

Two measurements, both against the scalar epoch-by-epoch oracle:

- ``replay``: one installed plan evaluated over a 500-epoch trace at
  n = 60 — :class:`~repro.simulation.batch.BatchSimulator` versus a
  ``Simulator.run_collection`` loop.  Acceptance bar: >= 8x.
- ``fig3``: the full Figure 3 experiment end-to-end:
  ``fig3_comparison.run`` (vectorized replay; NAIVE-k built directly
  from one row-wise sort; ORACLE priced as one ``(k·E, n)`` bandwidth
  matrix) versus the epoch-by-epoch composition ``fig3_rows`` of
  ``tests/experiments/_scalar_oracle.py``.  Acceptance bar: >= 3x wall
  time.

Equivalence is asserted alongside the timings: identical per-epoch
node sets and energies within 1e-9 relative tolerance.

The oracle lives under ``tests/``, so the repository root must be
importable: ``cd benchmarks; PYTHONPATH=../src:.. python
bench_batchsim.py``.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
trace sizes for the CI smoke job, which checks equivalence and records
the numbers without enforcing the full-size speedup bars.  Besides the
human-readable ``results/batchsim.txt`` table, a machine-readable
``results/BENCH_batchsim.json`` (``BENCH_batchsim.quick.json`` for a
quick run) is written for the CI artifact.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from _helpers import record, write_payload

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments import fig3_comparison
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.plans.plan import QueryPlan
from repro.simulation.batch import BatchSimulator
from repro.simulation.runtime import Simulator
from tests.experiments._scalar_oracle import fig3_rows

N = 60
K = 10


def _replay_row(quick: bool) -> dict:
    epochs = 60 if quick else 500
    rng = np.random.default_rng(2006)
    energy = EnergyModel.mica2()
    topology = random_topology(N, rng=rng)
    trace = random_gaussian_field(N, rng).trace(epochs, rng)
    plan = QueryPlan.naive_k(topology, K)

    scalar = Simulator(topology, energy)
    start = time.perf_counter()
    reports = [scalar.run_collection(plan, readings) for readings in trace]
    scalar_s = time.perf_counter() - start

    batch_sim = BatchSimulator(topology, energy)
    start = time.perf_counter()
    batch = batch_sim.run_collection(plan, trace.values)
    batch_s = time.perf_counter() - start

    # equivalence: node sets exact, energies to 1e-9 relative
    batch_sets = batch.top_k_node_sets(K)
    for epoch, report in enumerate(reports):
        assert batch_sets[epoch] == report.top_k_nodes(K)
    np.testing.assert_allclose(
        batch.energy_mj, [r.energy_mj for r in reports], rtol=1e-9
    )

    return {
        "workload": f"replay n={N} E={epochs}",
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / max(batch_s, 1e-12),
    }


def _fig3_row(quick: bool) -> dict:
    epochs = 40 if quick else 300
    start = time.perf_counter()
    scalar_rows = fig3_rows(eval_epochs=epochs)
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch_rows = fig3_comparison.run(eval_epochs=epochs)
    batch_s = time.perf_counter() - start

    # the batch path and the scalar oracle produce the same point cloud
    assert len(batch_rows) == len(scalar_rows)
    for got, want in zip(batch_rows, scalar_rows):
        assert got["algorithm"] == want["algorithm"]
        assert np.isclose(got["energy_mj"], want["energy_mj"], rtol=1e-9)
        assert np.isclose(got["accuracy"], want["accuracy"], rtol=1e-9)

    return {
        "workload": f"fig3 end-to-end E={epochs}",
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / max(batch_s, 1e-12),
    }


def run(quick: bool = False) -> list[dict]:
    return [_replay_row(quick), _fig3_row(quick)]


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "batchsim",
        rows,
        columns=["workload", "scalar_s", "batch_s", "speedup"],
        title="Batched simulation vs scalar oracle",
        quick=quick,
    )
    payload = {
        "benchmark": "batchsim",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            "replay_speedup_min": 8.0,
            "fig3_speedup_min": 3.0,
            "enforced": not quick,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    replay, fig3 = rows
    if quick:
        # smoke: batching must still win, but small traces cannot be
        # expected to hit the full-size bars
        assert replay["speedup"] > 1.0
        assert fig3["speedup"] > 1.0
        return
    assert replay["speedup"] >= 8.0
    assert fig3["speedup"] >= 3.0


def test_batchsim(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
