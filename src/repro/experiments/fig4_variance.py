"""Figure 4: effect of variance on LP−LF vs LP+LF.

Means stay in a small range; the variance sweeps from near zero (top-k
locations fully predictable) to large (all nodes nearly equally
likely).  The budget is fixed at a level that lets LP+LF reach near
perfect accuracy when variance is negligible.

Paper shape to reproduce: both algorithms are near 100% at low
variance; both degrade as variance grows, but LP−LF degrades *faster*
(it must commit to a fixed node set, while LP+LF spends the same budget
visiting more nodes and filtering locally); both level out once the
means are diluted.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments.common import evaluate_planner
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentRunner
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner

DEFAULT_VARIANCES = (0.05, 0.5, 2.0, 4.0, 7.0, 10.0, 14.0)


def _variance_trial(params: dict, rng: np.random.Generator) -> dict:
    """One (planner, variance) point, runnable in a worker process."""
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
    return evaluation.row(variance=params["variance"])


def run(
    seed: int = 2006,
    n: int = 60,
    k: int = 10,
    num_samples: int = 25,
    eval_epochs: int = 20,
    variances: tuple[float, ...] = DEFAULT_VARIANCES,
    budget: float | None = None,
    processes: int | None = None,
    runner: ExperimentRunner | None = None,
) -> list[dict]:
    """One row per (algorithm, variance) point of Figure 4."""
    rng = np.random.default_rng(seed)
    energy = EnergyModel.mica2()
    topology = random_topology(n, rng=rng)
    # unit-variance base field; the sweep scales it
    base = random_gaussian_field(n, rng, std_range=(1.0, 1.0))
    if budget is None:
        # enough to fetch ~3k scattered values: near-perfect when
        # variance is negligible, stressed when it is not
        budget = energy.message_cost(1) * 3 * k

    if runner is None:
        runner = ExperimentRunner(processes=processes, seed=seed)

    # traces are drawn in sweep order first so the rng stream (and
    # hence every row) is bit-identical to the original serial loop
    trial_params = []
    for variance in variances:
        field = base.scaled_variance(variance)
        train = field.trace(num_samples, rng)
        eval_trace = field.trace(eval_epochs, rng)
        for planner in (LPNoLFPlanner(), LPLFPlanner()):
            trial_params.append(
                {
                    "planner": planner,
                    "topology": topology,
                    "energy": energy,
                    "train": train,
                    "eval_trace": eval_trace,
                    "k": k,
                    "budget": budget,
                    "variance": variance,
                }
            )
    return list(runner.map(_variance_trial, trial_params, seed=seed))


def main() -> list[dict]:
    rows = run()
    print_table(
        rows,
        columns=["algorithm", "variance", "energy_mj", "accuracy"],
        title="Figure 4: effect of variance",
    )
    return rows


if __name__ == "__main__":
    main()
