"""Fleet simulation benchmark (ISSUE acceptance numbers).

A 1000-cell topology × plan × trace grid (4 topologies x 5 plans x
50 traces, n = 40 nodes, 8 epochs per trace) evaluated two ways:

- ``grid-serial``: one :class:`~repro.simulation.fleet.FleetSimulator`
  pass — cells sharing a (topology, plan) pair have their traces
  concatenated into blocked ``execute_plan_batch`` calls, and the
  plan-only accounting constants (trigger cost, acquisition, summed
  message energies) are hoisted out of the per-cell loop;
- the reference: a dedicated
  :class:`~repro.simulation.batch.BatchSimulator` ``run_collection``
  per cell, seeded with the matching ``SeedSequence`` child — exactly
  what an experiment loop would have written before the fleet engine.

The acceptance bar from the issue — >= 6x on the 1000-cell grid at
full size — is asserted here, along with exact equivalence: every
fleet report must be element-wise identical (energies included) to
its per-cell reference.  The pooled (multi-process) path is not timed
— process spawn overhead swamps a sub-second workload — but its
byte-for-byte equality with the serial path is covered by
``tests/simulation/test_fleet.py``.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
grid for the CI smoke job, which checks equivalence and records the
numbers without enforcing the full-size speedup bar.  Besides the
human-readable ``results/fleet.txt`` table, a machine-readable
``results/BENCH_fleet.json`` (``BENCH_fleet.quick.json`` for a quick
run) is written for the CI artifact.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from _helpers import record, write_payload

from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.plans.plan import QueryPlan
from repro.simulation.batch import BatchSimulator
from repro.simulation.fleet import FleetCell, FleetSimulator

SEED = 3


def _grid(topologies: int, plans: int, traces: int, n: int, epochs: int):
    rng = np.random.default_rng(11)
    cells = []
    for t in range(topologies):
        topology = random_topology(n, rng=rng)
        for p in range(plans):
            chosen = set(
                rng.choice(n, size=n // 4 + 2 * p, replace=False).tolist()
            )
            plan = QueryPlan.from_chosen_nodes(topology, chosen)
            for e in range(traces):
                cells.append(
                    FleetCell(topology, plan, rng.normal(size=(epochs, n)))
                )
    return cells


def _per_cell_reports(cells, energy):
    """The pre-fleet regime: one BatchSimulator run per cell."""
    seeds = np.random.SeedSequence(SEED).spawn(len(cells))
    return [
        BatchSimulator(
            cell.topology, energy, rng=np.random.default_rng(child)
        ).run_collection(cell.plan, np.asarray(cell.trace))
        for cell, child in zip(cells, seeds)
    ]


def _assert_reports_equal(fleet, reference) -> None:
    """No failure models in the grid, so equality is exact."""
    assert len(fleet) == len(reference)
    for got, want in zip(fleet, reference):
        assert np.array_equal(got.returned_nodes, want.returned_nodes)
        assert np.array_equal(got.returned_values, want.returned_values)
        assert np.array_equal(got.energy_mj, want.energy_mj)
        assert got.num_messages == want.num_messages
        assert got.num_values_sent == want.num_values_sent


def run(quick: bool = False) -> list[dict]:
    topologies, plans, traces, n, epochs = (
        (2, 2, 5, 30, 5) if quick else (4, 5, 50, 40, 8)
    )
    energy = EnergyModel.mica2()
    cells = _grid(topologies, plans, traces, n, epochs)

    start = time.perf_counter()
    reference = _per_cell_reports(cells, energy)
    per_cell_s = time.perf_counter() - start

    simulator = FleetSimulator(energy)
    start = time.perf_counter()
    fleet = simulator.run(cells, seed=SEED)
    fleet_s = time.perf_counter() - start

    _assert_reports_equal(fleet, reference)
    return [
        {
            "workload": "grid-serial",
            "cells": len(cells),
            "groups": topologies * plans,
            "epochs": epochs,
            "per_cell_s": per_cell_s,
            "fleet_s": fleet_s,
            "speedup": per_cell_s / max(fleet_s, 1e-12),
        }
    ]


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "fleet",
        rows,
        columns=[
            "workload", "cells", "groups", "epochs",
            "per_cell_s", "fleet_s", "speedup",
        ],
        title="Fleet grid pass vs per-cell BatchSimulator loops",
        quick=quick,
    )
    payload = {
        "benchmark": "fleet",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            "grid_serial_speedup_min": 6.0,
            "enforced": not quick,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    grid = next(r for r in rows if r["workload"] == "grid-serial")
    if quick:
        # smoke: the fleet pass must still win on a small grid, but it
        # is not held to the full-size bar
        assert grid["speedup"] > 1.0
        return
    assert grid["speedup"] >= 6.0


def test_fleet(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
