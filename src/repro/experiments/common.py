"""Shared plumbing for the experiment modules.

The paper's evaluation installs a plan once and runs it over many
epochs ("install-once, run-many-times usage", §5), measuring the
average per-query energy (trigger + collection) and the average
accuracy against ground truth.  :func:`evaluate_plan` implements that
loop; :func:`evaluate_planner` plans first from a training trace.

The replay is one vectorized pass over the whole evaluation trace
through :class:`~repro.simulation.batch.BatchSimulator`.  Its rows equal
the epoch-by-epoch :class:`~repro.simulation.runtime.Simulator` loop to
float round-off, failure retries under a shared seed included; that
loop is the test oracle in ``tests/experiments/_scalar_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.trace import Trace
from repro.errors import PlanError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology
from repro.obs import Instrumentation
from repro.plans.plan import QueryPlan
from repro.planners.base import Planner, PlanningContext
from repro.query.accuracy import batch_accuracy
from repro.simulation.batch import BatchSimulator


@dataclass
class Evaluation:
    """Averaged outcome of running one plan over an evaluation trace."""

    algorithm: str
    mean_accuracy: float
    mean_energy_mj: float
    static_cost_mj: float
    plan: QueryPlan | None = None

    def row(self, **extra) -> dict:
        base = {
            "algorithm": self.algorithm,
            "accuracy": self.mean_accuracy,
            "energy_mj": self.mean_energy_mj,
        }
        base.update(extra)
        return base


def _resolve_rng(rng, seed) -> np.random.Generator:
    """One randomness source for the failure draws of an evaluation.

    Accepting either an explicit generator or a seed (but not both)
    makes failure-model experiments reproducible; the previous
    behaviour — a fresh unseeded ``default_rng`` per evaluation — is
    kept only when neither is given.
    """
    if rng is not None and seed is not None:
        raise PlanError("pass either rng or seed, not both")
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def evaluate_plan(
    name: str,
    plan: QueryPlan,
    topology: Topology,
    energy: EnergyModel,
    eval_trace: Trace,
    k: int,
    instrumentation: Instrumentation | None = None,
    *,
    failures: LinkFailureModel | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> Evaluation:
    """Run an installed plan over every epoch of the evaluation trace."""
    simulator = BatchSimulator(
        topology, energy, failures=failures, rng=_resolve_rng(rng, seed),
        instrumentation=instrumentation,
    )
    report = simulator.run_collection(plan, eval_trace.values)
    accuracies = batch_accuracy(report.top_k_nodes(k), eval_trace.values, k)
    return Evaluation(
        algorithm=name,
        mean_accuracy=float(np.mean(accuracies)),
        mean_energy_mj=float(np.mean(report.energy_mj)),
        static_cost_mj=plan.static_cost(energy),
        plan=plan,
    )


def evaluate_planner(
    planner: Planner,
    topology: Topology,
    energy: EnergyModel,
    train_trace: Trace,
    eval_trace: Trace,
    k: int,
    budget: float,
    instrumentation: Instrumentation | None = None,
    *,
    failures: LinkFailureModel | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> Evaluation:
    """Plan from the training trace, then evaluate the plan."""
    context = PlanningContext(
        topology=topology,
        energy=energy,
        samples=train_trace.sample_matrix(k),
        k=k,
        budget=budget,
        failures=failures,
        instrumentation=instrumentation,
    )
    plan = planner.plan(context)
    return evaluate_plan(
        planner.name, plan, topology, energy, eval_trace, k,
        instrumentation=instrumentation,
        failures=failures, rng=rng, seed=seed,
    )


def budget_sweep(base: float, steps: int, factor: float = 1.6) -> list[float]:
    """A geometric ladder of energy budgets starting at ``base``."""
    return [base * factor**i for i in range(steps)]
