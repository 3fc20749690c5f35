"""Fast-path LP compilation benchmark (ISSUE acceptance numbers).

Measures, per formulation and problem size, how long it takes to get a
solver-ready :class:`~repro.lp.StandardForm` three ways:

- ``algebraic_s``: the oracle builders of
  ``tests/lp/_algebraic_oracle.py`` + ``compile_model`` (the reference
  object-graph path, kept as a test oracle);
- ``fast_cold_s``: the direct array compiler with an empty replan cache;
- ``fast_warm_s``: the same compiler after a prior compile on the same
  topology/k/costs (the :class:`~repro.query.engine.TopKEngine` replan
  regime — only the sample-dependent rows are rebuilt).

The acceptance bar from the issue — >= 5x at LP+LF n=60, m=25 with an
identical optimum — is asserted here, against the cold cache.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
size ladder for the CI smoke job, which checks optimum equality and
records the numbers without enforcing the full-size bar.  Besides the
human-readable ``results/fastpath.txt`` table, a machine-readable
``results/BENCH_fastpath.json`` (``BENCH_fastpath.quick.json`` for a
quick run) is written for the regression gate.

The oracle lives under ``tests/``, so the repository root must be
importable: ``cd benchmarks; PYTHONPATH=../src:.. python
bench_fastpath.py --quick`` (under pytest, ``conftest.py`` adds it).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from _helpers import record, write_payload

from repro.datagen.gaussian import random_gaussian_field
from repro.lp import ScipyBackend, compile_model
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from tests.lp._algebraic_oracle import build_model

SIZES = ((20, 10), (40, 25), (60, 25))
QUICK_SIZES = ((20, 10), (30, 10))
K = 10


def _context(planner, n: int, m: int, rng) -> PlanningContext:
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5))
    field = random_gaussian_field(n, rng).scaled_variance(4.0)
    samples = field.trace(m, rng).sample_matrix(K)
    budget = energy.message_cost(1) * 2 * K
    context = PlanningContext(topology, energy, samples, K, budget)
    if isinstance(planner, ProofPlanner):
        context.budget = planner.minimum_cost(context) * 1.5
    return context


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(quick: bool = False) -> list[dict]:
    rng = np.random.default_rng(2006)
    rows: list[dict] = []
    for n, m in QUICK_SIZES if quick else SIZES:
        # proof's p-variable count explodes cubically; keep it small
        planners = [LPNoLFPlanner(), LPLFPlanner()]
        if n <= 20:
            planners.append(ProofPlanner())
        for planner in planners:
            context = _context(planner, n, m, rng)
            algebraic = _best_of(
                lambda: compile_model(build_model(planner, context)[0])
            )
            fast_cold = _best_of(
                lambda: type(planner)().compile_fast(context)
            )
            planner.compile_fast(context)  # prime the replan cache
            fast_warm = _best_of(lambda: planner.compile_fast(context))
            rows.append(
                {
                    "formulation": planner.name,
                    "n": n,
                    "m": m,
                    "algebraic_s": algebraic,
                    "fast_cold_s": fast_cold,
                    "fast_warm_s": fast_warm,
                    "speedup_cold": algebraic / max(fast_cold, 1e-12),
                    "speedup_warm": algebraic / max(fast_warm, 1e-12),
                }
            )
    return rows


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "fastpath",
        rows,
        columns=[
            "formulation", "n", "m", "algebraic_s", "fast_cold_s",
            "fast_warm_s", "speedup_cold", "speedup_warm",
        ],
        title="LP compilation: fast path vs algebraic oracle",
        quick=quick,
    )
    payload = {
        "benchmark": "fastpath",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            "minima": [
                {
                    "metric": "speedup_cold",
                    "where": {"formulation": "lp-lf", "n": 60, "m": 25},
                    "min": 5.0,
                }
            ],
            "enforced": not quick,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    if quick:
        # smoke: the fast path must still win at the largest quick size
        target = next(
            r for r in rows
            if r["formulation"] == "lp-lf" and r["n"] == QUICK_SIZES[-1][0]
        )
        assert target["speedup_cold"] > 1.0
    else:
        # ISSUE acceptance: >= 5x for LP+LF at n=60, m=25, same optimum
        target = next(
            r for r in rows
            if r["formulation"] == "lp-lf" and r["n"] == 60 and r["m"] == 25
        )
        assert target["speedup_cold"] >= 5.0

    n, m = QUICK_SIZES[-1] if quick else (60, 25)
    planner = LPLFPlanner()
    context = _context(planner, n, m, np.random.default_rng(2006))
    compiled = planner.compile_fast(context)
    backend = ScipyBackend()
    fast = backend.solve_form(compiled.form, compiled.name)
    slow = build_model(planner, context)[0].solve(backend)
    assert fast.objective == slow.objective


def test_fastpath(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
