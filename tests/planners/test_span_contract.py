"""The span names ``perfbench/fig3_sweep.py`` folds into its ledger.

The fig3-sweep workload wraps each ``plan_for_budgets`` call of the
default (HiGHS) backend in a root span and maps every direct child to a
layer by name; a child under any other name raises ``KeyError`` in the
traced benchmark.  This pins those names in the tier-1 suite.
"""

import pytest

from repro.lp import Backend
from repro.obs import Instrumentation
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.proof import ProofPlanner
from tests.lp.test_fastbuild import make_context

LEDGER_SPANS = {"compile", "batch.solve", "solve", "round"}


@pytest.mark.parametrize(
    "planner_cls,planner_key",
    [
        (LPNoLFPlanner, "lp-no-lf"),
        (LPLFPlanner, "lp-lf"),
        (ProofPlanner, "proof"),
    ],
)
def test_plan_for_budgets_children_are_ledger_spans(planner_cls, planner_key):
    obs = Instrumentation()
    context = make_context(3, 12, 6, 3, planner_key=planner_key)
    context.instrumentation = obs
    budgets = [context.budget * f for f in (1.0, 1.5, 2.0)]
    with obs.span("plan_for_budgets") as root:
        plans = planner_cls().plan_for_budgets(context, budgets)
    assert len(plans) == len(budgets)
    names = [child.name for child in root.children]
    assert set(names) <= LEDGER_SPANS, names
    assert {"compile", "batch.solve", "round"} <= set(names)


def test_solve_only_object_is_not_a_backend():
    class SolveOnly:
        name = "solve-only"

        def solve(self, model):
            raise NotImplementedError

    assert not isinstance(SolveOnly(), Backend)
