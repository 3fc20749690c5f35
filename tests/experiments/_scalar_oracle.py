"""Epoch-by-epoch reference compositions of the experiment loops.

Production replays every plan over a whole trace at once on
:class:`~repro.simulation.batch.BatchSimulator` and builds the Figure 3
exact baselines from arrays.  These are the loops that path replaced:
one :class:`~repro.simulation.runtime.Simulator` call per epoch, one
ORACLE plan per epoch and ``j``.  They are the oracle the batch path
must match, rows to 1e-9 relative and accuracies exactly
(``tests/experiments/test_scalar_oracle.py``,
``test_common.py`` and ``test_fig3_exact_sweep.py``), and
``benchmarks/bench_batchsim.py`` times :func:`fig3_rows` as the
baseline of its ``fig3`` row.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments.common import Evaluation, budget_sweep
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.oracle import OraclePlanner
from repro.query.accuracy import accuracy
from repro.simulation.runtime import Simulator


def evaluate_plan(
    name, plan, topology, energy, eval_trace, k, *, failures=None, seed=None
) -> Evaluation:
    """:func:`repro.experiments.common.evaluate_plan`, one epoch at a
    time; a shared seed draws the same failures."""
    simulator = Simulator(
        topology, energy, failures=failures, rng=np.random.default_rng(seed)
    )
    accuracies = []
    energies = []
    for readings in eval_trace:
        report = simulator.run_collection(plan, readings)
        accuracies.append(accuracy(report.top_k_nodes(k), readings, k))
        energies.append(report.energy_mj)
    return Evaluation(
        algorithm=name,
        mean_accuracy=float(np.mean(accuracies)),
        mean_energy_mj=float(np.mean(energies)),
        static_cost_mj=plan.static_cost(energy),
        plan=plan,
    )


def naive_k(topology, energy, eval_trace, k) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch accuracies and energies of ``Simulator.run_naive_k``."""
    simulator = Simulator(topology, energy)
    accuracies = []
    energies = []
    for readings in eval_trace:
        report = simulator.run_naive_k(readings, k)
        accuracies.append(accuracy(report.top_k_nodes(k), readings, k))
        energies.append(report.energy_mj)
    return np.array(accuracies), np.array(energies)


def exact_sweep(topology, energy, eval_trace, k, include_naive_one):
    """The ORACLE / NAIVE rows of Figure 3: one ORACLE plan per epoch
    and ``j``, every protocol replayed epoch by epoch."""
    simulator = Simulator(topology, energy)
    oracle = OraclePlanner()
    rows: list[dict] = []
    for j in range(1, k + 1):
        oracle_costs = [
            simulator.run_collection(
                oracle.plan_for_readings(topology, readings, j), readings
            ).energy_mj
            for readings in eval_trace
        ]
        rows.append(
            {
                "algorithm": "oracle",
                "accuracy": j / k,
                "energy_mj": float(np.mean(oracle_costs)),
                "budget_mj": "",
            }
        )
        accuracies, energies = naive_k(topology, energy, eval_trace, j)
        rows.append(
            {
                "algorithm": "naive-k",
                "accuracy": float(np.mean(accuracies * j / k)),
                "energy_mj": float(np.mean(energies)),
                "budget_mj": "",
            }
        )
        if include_naive_one:
            one_costs = [
                simulator.run_naive_one(readings, j).energy_mj
                for readings in eval_trace
            ]
            rows.append(
                {
                    "algorithm": "naive-1",
                    "accuracy": j / k,
                    "energy_mj": float(np.mean(one_costs)),
                    "budget_mj": "",
                }
            )
    return rows


def fig3_rows(
    seed: int = 2006,
    n: int = 60,
    k: int = 10,
    num_samples: int = 25,
    eval_epochs: int = 20,
    budget_steps: int = 7,
    variance_scale: float = 9.0,
    include_naive_one: bool = False,
) -> list[dict]:
    """:func:`repro.experiments.fig3_comparison.run`, composed scalar:
    the same world, planners and ``plan_for_budgets`` ladders, each
    plan replayed epoch by epoch, rows in the same order."""
    rng = np.random.default_rng(seed)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng)
    field = random_gaussian_field(n, rng).scaled_variance(variance_scale)
    train = field.trace(num_samples, rng)
    eval_trace = field.trace(eval_epochs, rng)
    budgets = budget_sweep(energy.message_cost(1) * 4, budget_steps)

    def context(budget: float) -> PlanningContext:
        return PlanningContext(
            topology=topology,
            energy=energy,
            samples=train.sample_matrix(k),
            k=k,
            budget=budget,
        )

    greedy = GreedyPlanner()
    points = [(greedy.name, greedy.plan(context(b)), b) for b in budgets]
    for planner in (LPNoLFPlanner(), LPLFPlanner()):
        plans = planner.plan_for_budgets(context(budgets[0]), budgets)
        points.extend(
            (planner.name, plan, b) for plan, b in zip(plans, budgets)
        )
    rows = [
        evaluate_plan(name, plan, topology, energy, eval_trace, k).row(
            budget_mj=round(budget, 2)
        )
        for name, plan, budget in points
    ]
    rows.extend(
        exact_sweep(topology, energy, eval_trace, k, include_naive_one)
    )
    return rows
