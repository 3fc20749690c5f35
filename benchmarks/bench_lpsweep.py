"""Parametric budget-sweep benchmark (ISSUE acceptance numbers).

An 8-budget Figure-3-shaped ladder over the LP+LF formulation at
n = 60, m = 25, measured two ways per backend:

- ``sweep``: one :class:`~repro.lp.ParametricForm` compile plus
  ``solve_batch`` — the budget row's RHS slot is patched per member and
  the pure simplex backend warm-starts each member from the previous
  optimal basis via a dual-simplex restart;
- ``cold``: a fresh ``compile_lp_lf`` + ``solve_form`` per budget (the
  pre-sweep regime).

The acceptance bar from the issue — >= 3x on the pure simplex backend
at full size — is asserted here.  The HiGHS row is reported without a
bar: HiGHS loads the form into one session and re-solves each member
cold (a warm restart would land on other optimal vertices), so its
sweep win is the shared compile and model hand-off.  Equivalence is asserted alongside the
timings: sweep objectives match the cold objectives to 1e-9 and the
rounded LP+LF plans are exactly equal (warm and cold bases may differ
at degenerate alternate optima, so raw vectors are not compared).

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
instance for the CI smoke job, which checks equivalence and records
the numbers without enforcing the full-size speedup bar.  Besides the
human-readable ``results/lpsweep.txt`` table, a machine-readable
``results/BENCH_lpsweep.json`` (``BENCH_lpsweep.quick.json`` for a
quick run) is written for the CI artifact.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

# One BLAS/OpenMP thread, set before numpy loads: the pure simplex does
# many small dense solves, and on a 2-core host a second OpenBLAS
# thread makes the warm sweep slower than the cold solves it is
# measured against.  The committed baselines were recorded on 1 core.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np
from _helpers import record, write_payload

from repro.datagen.gaussian import random_gaussian_field
from repro.lp import ScipyBackend, SimplexBackend, compile_lp_lf
from repro.lp.fastbuild import compile_lp_lf_parametric
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.rounding import round_bandwidth

K = 10
_BUDGET_FACTORS = (0.7, 0.85, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def _context(n: int, m: int) -> PlanningContext:
    rng = np.random.default_rng(2006)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5))
    field = random_gaussian_field(n, rng).scaled_variance(4.0)
    samples = field.trace(m, rng).sample_matrix(K)
    budget = energy.message_cost(1) * 2 * K
    return PlanningContext(topology, energy, samples, K, budget)


def _sweep_row(backend, context, budgets) -> dict:
    start = time.perf_counter()
    parametric = compile_lp_lf_parametric(context)
    sweep = backend.solve_batch(parametric, parametric.rhs_values(budgets))
    sweep_s = time.perf_counter() - start

    start = time.perf_counter()
    cold = []
    for budget in budgets:
        compiled = compile_lp_lf(replace(context, budget=budget))
        cold.append(backend.solve_form(compiled.form, compiled.name))
    cold_s = time.perf_counter() - start

    # equivalence: objectives to 1e-9; plans exactly equal after the
    # planner's rounding (raw vectors may differ at alternate optima)
    planner = LPLFPlanner()
    bandwidth_of = parametric.compiled.primary_columns
    for budget, warm_member, cold_member in zip(budgets, sweep, cold):
        assert abs(warm_member.objective - cold_member.objective) <= 1e-9 * max(
            1.0, abs(cold_member.objective)
        )
        member_context = replace(context, budget=float(budget))
        warm_plan = planner._repair_and_fill(
            member_context,
            {
                edge: round_bandwidth(float(warm_member.values[col]))
                for edge, col in bandwidth_of.items()
            },
        )
        cold_plan = planner._repair_and_fill(
            member_context,
            {
                edge: round_bandwidth(float(cold_member.values[col]))
                for edge, col in bandwidth_of.items()
            },
        )
        assert warm_plan.bandwidths == cold_plan.bandwidths

    warm_hits = sum(
        1 for member in sweep if getattr(member.stats, "warm_started", False)
    )
    return {
        "backend": backend.name,
        "budgets": len(budgets),
        "warm_hits": warm_hits,
        "sweep_s": sweep_s,
        "cold_s": cold_s,
        "speedup": cold_s / max(sweep_s, 1e-12),
    }


def run(quick: bool = False) -> list[dict]:
    n, m = (30, 10) if quick else (60, 25)
    context = _context(n, m)
    budgets = [context.budget * factor for factor in _BUDGET_FACTORS]
    return [
        _sweep_row(SimplexBackend(), context, budgets),
        _sweep_row(ScipyBackend(), context, budgets),
    ]


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "lpsweep",
        rows,
        columns=["backend", "budgets", "warm_hits", "sweep_s", "cold_s", "speedup"],
        title="Parametric budget sweep vs per-budget cold solves (LP+LF)",
        quick=quick,
    )
    payload = {
        "benchmark": "lpsweep",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            "simplex_sweep_speedup_min": 3.0,
            "enforced": not quick,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    simplex = next(r for r in rows if r["backend"] == "pure-simplex")
    # warm starts must actually engage: every member after the first
    assert simplex["warm_hits"] >= len(_BUDGET_FACTORS) - 2
    if quick:
        # smoke: the sweep must still win, but a small instance cannot
        # be expected to hit the full-size bar
        assert simplex["speedup"] > 1.0
        return
    assert simplex["speedup"] >= 3.0


def test_lpsweep(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
