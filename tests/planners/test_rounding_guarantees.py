"""Property tests for the paper's §4.1 rounding guarantees.

"It can be easily shown that the resulting integer solution increases
the objective function value by at most a factor of 2, and costs at
most 2E."  Both halves, verified over random instances for the raw
(non-repaired) ½-threshold rounding of LP−LF.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.energy import EnergyModel
from repro.planners.base import PlanningContext
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.rounding import ROUND_THRESHOLD
from repro.plans.plan import QueryPlan
from repro.sampling.matrix import SampleMatrix
from tests.conftest import tree_strategy
from tests.lp._algebraic_oracle import build_lp_no_lf_model

UNIFORM = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.3)


@st.composite
def lp_no_lf_instance(draw):
    topology = draw(tree_strategy(min_nodes=3, max_nodes=10))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    samples = SampleMatrix(rng.normal(10, 4, size=(6, topology.n)), 3)
    budget = draw(st.floats(min_value=0.5, max_value=12.0))
    return PlanningContext(
        topology=topology,
        energy=UNIFORM,
        samples=samples,
        k=3,
        budget=budget,
    )


@settings(max_examples=60, deadline=None)
@given(lp_no_lf_instance())
def test_half_threshold_rounding_guarantees(context):
    planner = LPNoLFPlanner(strict_budget=False, fill_budget=False)
    model, x, __ = build_lp_no_lf_model(context)
    solution = model.solve()
    counts = context.samples.column_counts()
    total = int(counts.sum())

    plan = planner.plan(context)
    chosen = {
        node
        for node in context.topology.nodes
        if solution.value(x[node]) >= ROUND_THRESHOLD
    } | {context.topology.root}

    # (a) cost at most 2E: every needed edge had y >= x >= 1/2, so the
    # integral cost is at most twice the fractional cost <= 2E
    assert context.plan_cost(plan) <= 2 * context.budget + 1e-6

    # (b) objective (expected misses) at most doubled: per node, a
    # dropped x_i < 1/2 contributes cnt_i <= 2 (1 - x_i) cnt_i
    fractional_misses = total - solution.objective
    rounded_misses = total - sum(int(counts[n]) for n in chosen)
    assert rounded_misses <= 2 * fractional_misses + 1e-6


@settings(max_examples=40, deadline=None)
@given(lp_no_lf_instance())
def test_strict_mode_never_exceeds_budget(context):
    plan = LPNoLFPlanner(strict_budget=True).plan(context)
    assert context.plan_cost(plan) <= context.budget + 1e-9
    assert isinstance(plan, QueryPlan)
