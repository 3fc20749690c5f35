"""LP solve-time study (§5 "Other Results").

The paper reports CPLEX 8.1 timings on a 250(?) MHz desktop: usually a
few seconds, slower near budgets where many plans tie.  This experiment
measures build+solve wall time of each PROSPECTOR formulation across
network and sample sizes on our HiGHS backend: ``fastbuild_s`` is one
cold :mod:`repro.lp.fastbuild` compile, ``solve_s`` one ``solve_form``
of its output, and ``variables``/``constraints`` are the compiled
form's sizes.  The parametric budget-sweep columns follow: ``sweep_s``
is one compile + ``solve_batch`` over an 8-budget ladder,
``sweep_speedup`` is how much faster that is than compiling and
solving each budget cold.  (The HiGHS sweep shares the compile and one
loaded solver session, and restarts each member after the first from
the previous member's basis; each member's objective equals the cold
solve's, though it may sit on another optimal vertex.
``benchmarks/bench_lpsweep.py`` gates that warm ladder's speedup.)
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments.reporting import print_table
from repro.lp.backend import get_backend
from repro.lp.fastbuild import (
    compile_lp_lf,
    compile_lp_lf_parametric,
    compile_lp_no_lf,
    compile_lp_no_lf_parametric,
    compile_proof_parametric,
)
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner

_SWEEP_FACTORS = (0.7, 0.85, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def _parametric_for(planner, context):
    """The planner's formulation as a :class:`ParametricForm`."""
    if isinstance(planner, ProofPlanner):
        reserve = planner._reserve(context)
        acquisition = planner._acquisition_total(context)
        return compile_proof_parametric(
            context,
            budget_rhs_of=lambda budget: budget - reserve - acquisition,
        )
    if isinstance(planner, LPLFPlanner):
        return compile_lp_lf_parametric(context)
    return compile_lp_no_lf_parametric(context)


def _cold_compile(planner, context):
    """One cold compile (no replan cache) of the planner's formulation."""
    if isinstance(planner, ProofPlanner):
        return planner.compile_fast(context)
    if isinstance(planner, LPLFPlanner):
        return compile_lp_lf(context)
    return compile_lp_no_lf(context)


def _sweep_timings(planner, context, solver) -> tuple[float, float]:
    """(one-compile sweep seconds, per-budget cold seconds)."""
    budgets = [context.budget * factor for factor in _SWEEP_FACTORS]
    start = time.perf_counter()
    parametric = _parametric_for(planner, context)
    solver.solve_batch(parametric, parametric.rhs_values(budgets))
    sweep_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for budget in budgets:
        member = replace(context, budget=budget)
        compiled = _cold_compile(planner, member)
        solver.solve_form(compiled.form, compiled.name)
    cold_seconds = time.perf_counter() - start
    return sweep_seconds, cold_seconds


def run(
    seed: int = 2006,
    node_counts: tuple[int, ...] = (20, 40, 60),
    sample_counts: tuple[int, ...] = (10, 25),
    k: int = 10,
    include_proof: bool = True,
    instrumentation=None,
) -> list[dict]:
    """One row per (formulation, n, m) combination, solved on HiGHS."""
    rng = np.random.default_rng(seed)
    energy = EnergyModel.mica2()
    solver = get_backend(instrumentation=instrumentation)
    rows: list[dict] = []
    for n in node_counts:
        # keep sparse instances connectable: widen the radio range as
        # the node count shrinks
        radio_range = max(25.0, 200.0 / n**0.5)
        topology = random_topology(n, rng=rng, radio_range=radio_range)
        field = random_gaussian_field(n, rng).scaled_variance(4.0)
        for m in sample_counts:
            samples = field.trace(m, rng).sample_matrix(k)
            budget = energy.message_cost(1) * 2 * k
            context = PlanningContext(topology, energy, samples, k, budget)
            planners = [LPNoLFPlanner(), LPLFPlanner()]
            if include_proof:
                planners.append(ProofPlanner())
            for planner in planners:
                if isinstance(planner, ProofPlanner):
                    context_p = PlanningContext(
                        topology, energy, samples, k,
                        budget=planner.minimum_cost(context) * 1.5,
                    )
                else:
                    context_p = context
                # cold compile: a fresh planner has an empty replan cache
                start = time.perf_counter()
                compiled = planner.compile_fast(context_p)
                fastbuild_seconds = time.perf_counter() - start
                form = compiled.form
                solution = solver.solve_form(form, compiled.name)
                sweep_seconds, cold_seconds = _sweep_timings(
                    planner, context_p, solver
                )
                rows.append(
                    {
                        "formulation": planner.name,
                        "n": n,
                        "m": m,
                        "variables": form.num_variables,
                        "constraints": form.a_ub.shape[0]
                        + form.a_eq.shape[0],
                        "fastbuild_s": fastbuild_seconds,
                        "solve_s": solution.stats.wall_seconds,
                        "sweep_s": sweep_seconds,
                        "sweep_speedup": cold_seconds
                        / max(sweep_seconds, 1e-12),
                    }
                )
    return rows


def main() -> list[dict]:
    rows = run()
    print_table(
        rows,
        columns=[
            "formulation", "n", "m", "variables", "constraints",
            "fastbuild_s", "solve_s", "sweep_s", "sweep_speedup",
        ],
        title="LP solve-time study",
    )
    return rows


if __name__ == "__main__":
    main()
