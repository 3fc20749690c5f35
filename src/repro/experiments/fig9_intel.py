"""Figure 9: the Intel Lab temperature data (surrogate).

54 motes, radio range shortened to 6m to force hierarchy, the first 50
epochs as samples, k = 5.  On this data the top-k locations are fairly
predictable, so the paper finds LP+LF ≈ LP−LF (local filtering buys
nothing) while topology-awareness still separates LP−LF from Greedy;
NAIVE-k needs over 3x the energy of the approximate planners at
near-100% accuracy.

The surrogate trace preserves exactly those properties (stable warm
spots, smooth drift); see DESIGN.md §4 for the substitution rationale.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.intel import IntelLabSurrogate, intel_lab_network
from repro.experiments.common import budget_sweep, evaluate_planner
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentRunner
from repro.network.energy import EnergyModel
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.query.accuracy import batch_accuracy
from repro.simulation.batch import BatchSimulator


def _budget_trial(params: dict, rng: np.random.Generator) -> dict:
    """One (planner, budget) point, runnable in a worker process."""
    evaluation = evaluate_planner(
        params["planner"],
        params["topology"],
        params["energy"],
        params["train"],
        params["eval_trace"],
        params["k"],
        params["budget"],
        rng=rng,
    )
    return evaluation.row(budget_mj=round(params["budget"], 2))


def run(
    seed: int = 2006,
    k: int = 5,
    training_epochs: int = 50,
    eval_epochs: int = 25,
    budget_steps: int = 6,
    include_lp_lf: bool = True,
    processes: int | None = None,
    runner: ExperimentRunner | None = None,
) -> list[dict]:
    """One row per (algorithm, budget) point of Figure 9."""
    rng = np.random.default_rng(seed)
    energy = EnergyModel.mica2()
    topology = intel_lab_network(rng)
    surrogate = IntelLabSurrogate()
    trace = surrogate.generate(topology, training_epochs + eval_epochs, rng)
    train, eval_trace = trace.split(training_epochs)

    planners = [GreedyPlanner(), LPNoLFPlanner()]
    if include_lp_lf:
        planners.append(LPLFPlanner())

    if runner is None:
        runner = ExperimentRunner(processes=processes, seed=seed)

    # the lab network is deep (radio range forced down to 6m), so even
    # one fetched value pays per-message along the whole root path
    base = energy.message_cost(1) * (topology.height + 2)
    trial_params = [
        {
            "planner": planner,
            "topology": topology,
            "energy": energy,
            "train": train,
            "eval_trace": eval_trace,
            "k": k,
            "budget": budget,
        }
        for budget in budget_sweep(base, budget_steps, factor=1.5)
        for planner in planners
    ]
    rows: list[dict] = list(runner.map(_budget_trial, trial_params, seed=seed))

    # the NAIVE-k reference point the paper quotes in prose
    report = BatchSimulator(topology, energy).run_naive_k(eval_trace.values, k)
    naive_accs = batch_accuracy(report.top_k_nodes(k), eval_trace.values, k)
    rows.append(
        {
            "algorithm": "naive-k",
            "accuracy": float(np.mean(naive_accs)),
            "energy_mj": float(np.mean(report.energy_mj)),
            "budget_mj": "",
        }
    )
    return rows


def main() -> list[dict]:
    rows = run()
    print_table(
        rows,
        columns=["algorithm", "budget_mj", "energy_mj", "accuracy"],
        title="Figure 9: Intel Lab data (synthetic surrogate)",
    )
    return rows


if __name__ == "__main__":
    main()
