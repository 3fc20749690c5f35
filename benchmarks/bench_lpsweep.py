"""Parametric budget-sweep benchmark: warm HiGHS ladders vs cold solves.

An 8-budget Figure-3-shaped ladder over the LP+LF formulation at
n = 60, m = 25, timed two ways on the production backend
(:class:`~repro.lp.ScipyBackend`), each the best of three runs:

- ``sweep``: one :class:`~repro.lp.ParametricForm` compile plus
  ``solve_batch`` -- HiGHS loads the form once, solves the first member
  cold and restarts each later member from the previous member's basis
  after patching the budget row;
- ``cold``: a fresh ``compile_lp_lf`` + ``solve_form`` per budget.

Two bars are asserted and written into the payload's acceptance block:
warm starts must engage (``warm_hits >= budgets - 2``) and the sweep
must beat cold solves by ``SPEEDUP_MIN`` (full size) or
``QUICK_SPEEDUP_MIN`` (quick).  The vertex policy is asserted alongside
the timings: each member is an optimum of its own budget's LP (the cold
objective to 1e-9 relative, both points feasible), and each member's
rounded LP+LF plan fits its budget.  Warm and cold solves may sit on
different optimal vertices, so raw vectors and plans are not compared.

Run from ``benchmarks/`` with ``PYTHONPATH=../src:..`` (the
feasibility check is the tests' own).  ``run(quick=True)`` (or
``--quick`` / ``BENCH_QUICK=1``) shrinks the instance to n = 30,
m = 10 for the CI smoke job.  Besides the human-readable
``results/lpsweep.txt`` table, a machine-readable
``results/BENCH_lpsweep.json`` (``BENCH_lpsweep.quick.json`` for a
quick run) is written for the regression gate.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

import numpy as np
from _helpers import record, write_payload

from repro.datagen.gaussian import random_gaussian_field
from repro.lp import ScipyBackend, compile_lp_lf
from repro.lp.fastbuild import compile_lp_lf_parametric
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from tests.lp.test_parametric import _assert_feasible

K = 10
_BUDGET_FACTORS = (0.7, 0.85, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
SPEEDUP_MIN = 2.0
QUICK_SPEEDUP_MIN = 1.5
REPEATS = 3


def _context(n: int, m: int) -> PlanningContext:
    rng = np.random.default_rng(2006)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5))
    field = random_gaussian_field(n, rng).scaled_variance(4.0)
    samples = field.trace(m, rng).sample_matrix(K)
    budget = energy.message_cost(1) * 2 * K
    return PlanningContext(topology, energy, samples, K, budget)


def _best_of(fn):
    """``(best seconds, last result)`` of ``REPEATS`` calls."""
    best = float("inf")
    for __ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _sweep(backend, context, budgets):
    parametric = compile_lp_lf_parametric(context)
    return parametric, backend.solve_batch(
        parametric, parametric.rhs_values(budgets)
    )


def _cold(backend, context, budgets):
    members = []
    for budget in budgets:
        compiled = compile_lp_lf(replace(context, budget=budget))
        members.append(
            (compiled.form, backend.solve_form(compiled.form, compiled.name))
        )
    return members


def _sweep_row(backend, context, budgets) -> dict:
    sweep_s, (parametric, sweep) = _best_of(
        lambda: _sweep(backend, context, budgets)
    )
    cold_s, cold = _best_of(lambda: _cold(backend, context, budgets))

    # the vertex policy: each member an optimum of its own LP, and its
    # rounded plan within its budget
    planner = LPLFPlanner()
    for budget, member, (form, reference) in zip(budgets, sweep, cold):
        assert abs(member.objective - reference.objective) <= 1e-9 * max(
            1.0, abs(reference.objective)
        )
        _assert_feasible(form, member.values)
        _assert_feasible(form, reference.values)
        member_context = replace(context, budget=float(budget))
        plan = planner._round(
            member_context, member, parametric.primary_columns
        )
        assert member_context.plan_cost(plan) <= budget + 1e-9

    return {
        "backend": backend.name,
        "budgets": len(budgets),
        "warm_hits": sum(member.stats.warm_started for member in sweep),
        "sweep_s": sweep_s,
        "cold_s": cold_s,
        "speedup": cold_s / max(sweep_s, 1e-12),
    }


def run(quick: bool = False) -> list[dict]:
    n, m = (30, 10) if quick else (60, 25)
    context = _context(n, m)
    budgets = [context.budget * factor for factor in _BUDGET_FACTORS]
    return [_sweep_row(ScipyBackend(), context, budgets)]


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "lpsweep",
        rows,
        columns=["backend", "budgets", "warm_hits", "sweep_s", "cold_s", "speedup"],
        title="Warm HiGHS budget ladder vs per-budget cold solves (LP+LF)",
        quick=quick,
    )
    where = {"backend": "scipy-highs"}
    payload = {
        "benchmark": "lpsweep",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            "minima": [
                {
                    "metric": "warm_hits",
                    "where": where,
                    "min": len(_BUDGET_FACTORS) - 2,
                },
                {
                    "metric": "speedup",
                    "where": where,
                    "min": QUICK_SPEEDUP_MIN if quick else SPEEDUP_MIN,
                },
            ],
            "enforced": True,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    (highs,) = rows
    assert highs["warm_hits"] >= len(_BUDGET_FACTORS) - 2
    assert highs["speedup"] >= (QUICK_SPEEDUP_MIN if quick else SPEEDUP_MIN)


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
