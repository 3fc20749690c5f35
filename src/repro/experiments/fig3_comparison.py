"""Figure 3: energy cost vs accuracy for all algorithms.

Independent-Gaussian workload (means and variances from small ranges),
k = 10.  Approximate algorithms (Greedy, LP−LF, LP+LF) sweep the energy
budget; exact algorithms (ORACLE, NAIVE-k, and the discussed NAIVE-1)
sweep the target ``j <= k`` instead and report accuracy ``j/k`` at
their measured cost.

Paper shape to reproduce: NAIVE-k far right (most expensive); the
approximate algorithms reach high accuracy at a fraction of its cost,
ordered Greedy < LP−LF < LP+LF; ORACLE is the unreachable left
frontier; NAIVE-1's cost at k=1 already matches NAIVE-k at k=50.

The (planner, budget) sweep is a bag of independent trials routed
through :class:`~repro.experiments.runner.ExperimentRunner`
(deterministic per-trial seeds, cached, optionally parallel), and each
trial replays its plan over the whole trace on
:class:`~repro.simulation.batch.BatchSimulator`.  The exact baselines
build no plans: ORACLE's energies for every ``j`` come from one
row-wise sort and one ``(k·E, n)`` bandwidth matrix, and NAIVE-k's
answer and message log are built directly (it is exact by
construction).  The epoch-by-epoch composition of the same figure is
the test oracle in ``tests/experiments/_scalar_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments.common import budget_sweep, evaluate_plan, evaluate_planner
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentRunner
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.plans.execution import path_incidence, sort_readings_desc
from repro.query.accuracy import batch_accuracy
from repro.simulation.batch import BatchSimulator
from repro.simulation.runtime import Simulator


def _planner_trial(params: dict, rng: np.random.Generator) -> dict:
    """One (planner, budget) point, runnable in a worker process.

    LP planners arrive with a precomputed ``plan`` (the whole budget
    ladder is solved as one parametric sweep before the trials fan
    out: compiled once, then one HiGHS session re-solves each member
    cold), so their trials are pure replays; planners without sweep
    support plan inside the trial as before.
    """
    if "plan" in params:
        evaluation = evaluate_plan(
            params["name"],
            params["plan"],
            params["topology"],
            params["energy"],
            params["eval_trace"],
            params["k"],
            instrumentation=params.get("instrumentation"),
            rng=rng,
        )
    else:
        evaluation = evaluate_planner(
            params["planner"],
            params["topology"],
            params["energy"],
            params["train"],
            params["eval_trace"],
            params["k"],
            params["budget"],
            instrumentation=params.get("instrumentation"),
            rng=rng,
        )
    return evaluation.row(budget_mj=round(params["budget"], 2))


def run(
    seed: int = 2006,
    n: int = 60,
    k: int = 10,
    num_samples: int = 25,
    eval_epochs: int = 20,
    budget_steps: int = 7,
    variance_scale: float = 9.0,
    include_naive_one: bool = False,
    instrumentation=None,
    processes: int | None = None,
    runner: ExperimentRunner | None = None,
) -> list[dict]:
    """Regenerate the Figure 3 point cloud; one row per plotted point.

    ``instrumentation`` (an optional :class:`~repro.obs.Instrumentation`)
    collects per-planner LP solve-time histograms and per-collection
    energy counters across the whole sweep (inline trials only — it
    cannot cross process boundaries, so it is dropped when
    ``processes > 1``).  ``processes``/``runner`` control trial
    parallelism and result caching.
    """
    rng = np.random.default_rng(seed)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng)
    field = random_gaussian_field(n, rng).scaled_variance(variance_scale)
    train = field.trace(num_samples, rng)
    eval_trace = field.trace(eval_epochs, rng)

    if runner is None:
        runner = ExperimentRunner(processes=processes, seed=seed)
    parallel = runner.processes > 1

    base_budget = energy.message_cost(1) * 4
    budgets = budget_sweep(base_budget, budget_steps)
    obs_extra = (
        {}
        if parallel or instrumentation is None
        else {"instrumentation": instrumentation}
    )
    trial_params = [
        {
            "planner": GreedyPlanner(),
            "topology": topology,
            "energy": energy,
            "train": train,
            "eval_trace": eval_trace,
            "k": k,
            "budget": budget,
            **obs_extra,
        }
        for budget in budgets
    ]
    # the LP planners solve the whole budget ladder as one parametric
    # sweep (compile once, one HiGHS session re-solving each member
    # cold); the trials then just replay the precomputed plans
    samples = train.sample_matrix(k)
    for planner in (LPNoLFPlanner(), LPLFPlanner()):
        context = PlanningContext(
            topology=topology,
            energy=energy,
            samples=samples,
            k=k,
            budget=budgets[0],
            instrumentation=None if parallel else instrumentation,
        )
        plans = planner.plan_for_budgets(context, budgets)
        trial_params.extend(
            {
                "name": planner.name,
                "plan": plan,
                "topology": topology,
                "energy": energy,
                "eval_trace": eval_trace,
                "k": k,
                "budget": budget,
                **obs_extra,
            }
            for budget, plan in zip(budgets, plans)
        )
    rows: list[dict] = list(runner.map(_planner_trial, trial_params, seed=seed))

    # exact algorithms: sweep j and report accuracy j / k
    rows.extend(
        _exact_sweep_batch(
            topology, energy, eval_trace, k, include_naive_one,
            instrumentation,
        )
    )
    return rows


def _exact_sweep_batch(
    topology, energy, eval_trace, k, include_naive_one, instrumentation
) -> list[dict]:
    """The ORACLE / NAIVE sweeps on arrays.

    ORACLE fetches each epoch's true top-``j``, so its plans for every
    ``j`` are prefix masks of one row-wise ``(value, node)`` sort; times
    :func:`~repro.plans.execution.path_incidence` they give one
    ``(k·E, n)`` bandwidth matrix, priced by one
    :meth:`~repro.simulation.batch.BatchSimulator.run_bandwidth_sweep`
    call.  NAIVE-k is exact, so
    :meth:`~repro.simulation.batch.BatchSimulator.run_naive_k` builds
    its answer and message log directly.  NAIVE-1's pipelined protocol
    has no batch formulation and stays scalar.
    """
    simulator = BatchSimulator(topology, energy, instrumentation=instrumentation)
    scalar = Simulator(topology, energy, instrumentation=instrumentation)
    values = eval_trace.values
    num_epochs, n = values.shape
    # rank[e, u] is u's place in epoch e's descending order; the root's
    # incidence row is empty, so the root ORACLE always adds is implied
    __, order = sort_readings_desc(values)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    chosen = rank[None, :, :] < np.arange(1, k + 1)[:, None, None]
    bandwidths = chosen.reshape(k * num_epochs, n) @ path_incidence(topology)
    oracle_costs = simulator.run_bandwidth_sweep(bandwidths).reshape(
        k, num_epochs
    )
    rows: list[dict] = []
    for j in range(1, k + 1):
        rows.append(
            {
                "algorithm": "oracle",
                "accuracy": j / k,
                "energy_mj": float(np.mean(oracle_costs[j - 1])),
                "budget_mj": "",
            }
        )

        report = simulator.run_naive_k(values, j)
        naive_acc = batch_accuracy(report.top_k_nodes(j), values, j) * j / k
        rows.append(
            {
                "algorithm": "naive-k",
                "accuracy": float(np.mean(naive_acc)),
                "energy_mj": float(np.mean(report.energy_mj)),
                "budget_mj": "",
            }
        )

        if include_naive_one:
            one_costs = [
                scalar.run_naive_one(readings, j).energy_mj
                for readings in values
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


def main() -> list[dict]:
    rows = run()
    print_table(
        rows,
        columns=["algorithm", "budget_mj", "energy_mj", "accuracy"],
        title="Figure 3: comparison of algorithms (energy vs accuracy)",
    )
    return rows


if __name__ == "__main__":
    main()
