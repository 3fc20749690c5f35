"""Golden outputs: Figure 3 sweep rows and one engine's plan sequence.

The fixture ``golden_plans.json`` pins the exact accuracy and energy
rows of two seeded Figure 3 sweeps and the plans a seeded
:class:`~repro.query.engine.TopKEngine` installs over a replanning
run.  Any change to planning, rounding or plan costing that moves a
single plan shows up here as a row or plan mismatch, so accuracy and
energy cannot drift silently behind a refactor.

Regenerate (only when a change is *meant* to move plans) with::

    PYTHONPATH=src python -m tests.planners.test_golden_plans
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments import fig3_comparison
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.planners.base import PlanningContext
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from repro.query.engine import EngineConfig, TopKEngine

FIXTURE = Path(__file__).with_name("golden_plans.json")
FIG3_SEEDS = (11, 2006)
ENGINE_SEED = 7
ENGINE_EPOCHS = 60


def fig3_rows(seed: int) -> list[dict]:
    return fig3_comparison.run(
        seed=seed, n=60, k=10, budget_steps=7, processes=1
    )


def engine_plan_sequence() -> list[dict]:
    """One record per epoch: the action taken and, on query epochs,
    the installed plan's bandwidths (in edge order) and its energy."""
    rng = np.random.default_rng(ENGINE_SEED)
    topology = random_topology(40, rng=rng, radio_range=32.0)
    field = random_gaussian_field(40, rng).scaled_variance(4.0)
    engine = TopKEngine(
        topology,
        EnergyModel.mica2(),
        5,
        LPLFPlanner(),
        config=EngineConfig(budget_mj=12.0, replan_every=5),
        rng=np.random.default_rng(ENGINE_SEED + 1),
    )
    records = []
    for readings in field.trace(ENGINE_EPOCHS, rng).values:
        outcome = engine.step(readings)
        record = {"action": outcome.action, "energy_mj": outcome.energy_mj}
        if outcome.action == "query":
            record["bandwidths"] = [
                engine.plan.bandwidths[edge] for edge in topology.edges
            ]
            record["replanned"] = outcome.notes["replanned"]
        records.append(record)
    return records


def planner_plans() -> dict[str, list[list[int]]]:
    """Plans of every budgeted planner over a budget ladder, on one
    seeded context with acquisition energy and flaky links charged."""
    rng = np.random.default_rng(ENGINE_SEED)
    topology = random_topology(30, rng=rng, radio_range=35.0)
    field = random_gaussian_field(30, rng).scaled_variance(4.0)
    energy = EnergyModel(acquisition_mj=0.05)
    context = PlanningContext(
        topology=topology,
        energy=energy,
        samples=field.trace(20, rng).sample_matrix(4),
        k=4,
        budget=0.0,
        failures=LinkFailureModel.random(topology, rng),
    )
    planners = {
        "greedy": GreedyPlanner(),
        "greedy-skip": GreedyPlanner(skip_unaffordable=True),
        "lp-lf": LPLFPlanner(),
        "lp-no-lf": LPNoLFPlanner(),
    }
    proof = ProofPlanner(fill_budget=True)
    floor = proof.minimum_cost(context)
    ladders = {name: (2.0, 6.0, 12.0, 24.0) for name in planners}
    planners["proof"] = proof
    ladders["proof"] = (floor * 1.05, floor * 1.15, floor * 1.4)
    plans = {}
    for name, planner in planners.items():
        plans[name] = []
        for budget in ladders[name]:
            plan = planner.plan(replace(context, budget=budget))
            plans[name].append(
                [plan.bandwidths[edge] for edge in topology.edges]
            )
    return plans


def generate() -> dict:
    return {
        "fig3": {str(seed): fig3_rows(seed) for seed in FIG3_SEEDS},
        "engine": engine_plan_sequence(),
        "planners": planner_plans(),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fig3_rows_match_golden():
    golden = _golden()["fig3"]
    for seed in FIG3_SEEDS:
        assert fig3_rows(seed) == golden[str(seed)], f"seed {seed}"


def test_engine_plan_sequence_matches_golden():
    records = engine_plan_sequence()
    golden = _golden()["engine"]
    assert len({tuple(r["bandwidths"]) for r in golden if "bandwidths" in r}) > 1
    assert records == golden


def test_planner_plans_match_golden():
    assert planner_plans() == _golden()["planners"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
