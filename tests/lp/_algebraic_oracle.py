"""Algebraic reference builders for the three PROSPECTOR LPs.

Each builder spells one formulation of the paper (§4.1 LP−LF, §4.2
LP+LF, §4.3 Proof) as a ``Model`` object graph, one
``add_constraint`` per paper constraint, in the modeling layer of
``tests/lp/_model_oracle.py``.  Production compiles with
:mod:`repro.lp.fastbuild` only; these builders, lowered by the
oracle's ``compile_model``, are what it must match bit for bit
(``tests/lp/test_fastbuild.py``), and
``benchmarks/bench_fastpath.py`` times them as the baseline the fast
path is measured against.

:func:`oracle_plan` runs the whole planning path on the oracle: solve
the algebraic model, round its primary columns as the planner does, and
hand the result to the planner's own repair-and-fill step.
"""

from __future__ import annotations

from repro.lp.backend import resolve_backend
from repro.planners.base import PlanningContext
from repro.planners.proof import ProofPlanner
from repro.planners.rounding import round_bandwidth
from repro.plans.plan import QueryPlan
from tests.lp._model_oracle import LinExpr, Model


def build_lp_no_lf_model(context: PlanningContext) -> tuple[Model, dict, dict]:
    """PROSPECTOR LP−LF (§4.1): ``(model, x, y)``."""
    topology = context.topology
    counts = context.samples.column_counts()
    model = Model("prospector-lp-no-lf")

    x = {
        node: model.add_variable(f"x_{node}", lb=0.0, ub=1.0)
        for node in topology.nodes
    }
    y = {
        edge: model.add_variable(f"y_{edge}", lb=0.0, ub=1.0)
        for edge in topology.edges
    }

    # (2) fetching node i uses every edge above it
    for node in topology.nodes:
        if node == topology.root:
            continue
        for edge in topology.path_edges(node):
            model.add_constraint(x[node] <= y[edge], name=f"path_{node}_{edge}")

    # (3) energy budget: per-message on used edges + per-value along
    # paths. Per-node acquisition (§4.4 "Modeling Other Costs")
    # attaches to each edge's child endpoint — every node on an
    # active path measures, since execution merges its own reading;
    # the root always measures, so its share is constant.
    acquisition = context.energy.acquisition_mj
    cost = LinExpr.sum_of(
        [
            (context.edge_cost(edge) + acquisition) * y[edge]
            for edge in topology.edges
        ]
        + [
            (topology.depth(node) * context.per_value) * x[node]
            for node in topology.nodes
            if node != topology.root
        ]
    )
    model.add_constraint(cost <= context.budget - acquisition, name="budget")

    # (1) maximize covered top-k appearances == minimize misses
    model.maximize(
        LinExpr.sum_of(int(counts[node]) * x[node] for node in topology.nodes)
    )
    return model, x, y


def build_lp_lf_model(
    context: PlanningContext,
) -> tuple[Model, dict, dict, dict]:
    """PROSPECTOR LP+LF (§4.2): ``(model, b, y, z)``."""
    topology = context.topology
    samples = context.samples
    model = Model("prospector-lp-lf")

    subtree = topology.subtree_size
    b = {
        edge: model.add_variable(f"b_{edge}", lb=0.0, ub=float(subtree(edge)))
        for edge in topology.edges
    }
    y = {
        edge: model.add_variable(f"y_{edge}", lb=0.0, ub=1.0)
        for edge in topology.edges
    }
    z: dict[tuple[int, int], object] = {}
    for j in range(samples.num_samples):
        # sorted so the column order is deterministic and matches
        # the fast-path compiler (frozenset order is not)
        for node in sorted(samples.ones(j)):
            z[j, node] = model.add_variable(f"z_{j}_{node}", lb=0.0, ub=1.0)

    # an unused edge carries no bandwidth (ties b to y so the
    # per-message cost is paid whenever bandwidth is allocated)
    for edge in topology.edges:
        model.add_constraint(
            b[edge] <= float(subtree(edge)) * y[edge], name=f"use_{edge}"
        )

    # (7) returning i's value for sample j needs every edge above i
    for (j, node), var in z.items():
        for edge in topology.path_edges(node):
            model.add_constraint(var <= y[edge], name=f"path_{j}_{node}_{edge}")

    # (8) bandwidth caps the sample's top-k flow through each edge
    descendant_sets = topology.descendant_sets()
    for j in range(samples.num_samples):
        ones = samples.ones(j)
        for edge in topology.edges:
            members = ones & descendant_sets[edge]
            if not members:
                continue
            flow = LinExpr.sum_of(z[j, node] for node in members)
            model.add_constraint(flow <= b[edge], name=f"bw_{j}_{edge}")

    # (6) energy budget; acquisition (§4.4) attaches to each used
    # edge's child endpoint, with the root's share constant
    acquisition = context.energy.acquisition_mj
    cost = LinExpr.sum_of(
        [
            (context.edge_cost(edge) + acquisition) * y[edge]
            for edge in topology.edges
        ]
        + [context.per_value * b[edge] for edge in topology.edges]
    )
    model.add_constraint(cost <= context.budget - acquisition, name="budget")

    # (5) minimize misses == maximize returned top-k entries
    model.maximize(LinExpr.sum_of(z.values()))
    return model, b, y, z


def build_proof_model(context: PlanningContext) -> tuple[Model, dict, dict]:
    """PROSPECTOR-Proof (§4.3): ``(model, b, p)``."""
    topology = context.topology
    samples = context.samples
    model = Model("prospector-proof")

    b = {
        edge: model.add_variable(
            f"b_{edge}", lb=1.0, ub=float(topology.subtree_size(edge))
        )
        for edge in topology.edges
    }

    p: dict[tuple[int, int, int], object] = {}
    for j in range(samples.num_samples):
        for node in topology.nodes:
            for anc in topology.ancestors(node):
                p[j, node, anc] = model.add_variable(
                    f"p_{j}_{node}_{anc}", lb=0.0, ub=1.0
                )

    descendant_sets = topology.descendant_sets()
    for j in range(samples.num_samples):
        # (13) chain monotonicity along each node's ancestor path
        for node in topology.nodes:
            chain = topology.ancestors(node)
            for below, above in zip(chain, chain[1:]):
                model.add_constraint(
                    p[j, node, above] <= p[j, node, below],
                    name=f"chain_{j}_{node}_{above}",
                )

        # (12) bandwidth caps proven flow through each edge
        for edge in topology.edges:
            parent = topology.parent(edge)
            flow = LinExpr.sum_of(
                p[j, node, parent] for node in descendant_sets[edge]
            )
            model.add_constraint(flow <= b[edge], name=f"bw_{j}_{edge}")

        # (14) sibling subtrees must prove smaller values
        for node in topology.nodes:
            smaller = samples.smaller_than(node, j)
            for anc in topology.ancestors(node):
                for sibling in topology.sibling_children(node, anc):
                    support = descendant_sets[sibling] & smaller
                    if not support:
                        continue  # paper's exception: no constraint
                    model.add_constraint(
                        p[j, node, anc]
                        <= LinExpr.sum_of(p[j, s, sibling] for s in support),
                        name=f"sup_{j}_{node}_{anc}_{sibling}",
                    )

    # (11) budget with the proven-count reserve
    cost = LinExpr.sum_of(
        [
            context.edge_cost(edge) + context.per_value * b[edge]
            for edge in topology.edges
        ]
    )
    planner = ProofPlanner()
    model.add_constraint(
        cost
        <= context.budget
        - planner._reserve(context)
        - planner._acquisition_total(context),
        name="budget",
    )

    # (10) expected number of top-k values proven at the root
    root = topology.root
    model.maximize(
        LinExpr.sum_of(
            p[j, node, root]
            for j in range(samples.num_samples)
            for node in samples.ones(j)
        )
    )
    return model, b, p


BUILDERS = {
    "lp-no-lf": build_lp_no_lf_model,
    "lp-lf": build_lp_lf_model,
    "prospector-proof": build_proof_model,
}


def build_model(planner, context: PlanningContext) -> tuple:
    """The oracle builder's output for ``planner``'s formulation; the
    model comes first, its variable maps after."""
    return BUILDERS[planner.name](context)


def oracle_plan(planner, context: PlanningContext, backend=None) -> QueryPlan:
    """``planner.plan(context)`` computed on the algebraic oracle.

    The oracle model is solved (``backend`` defaults to the planner's
    own) and its primary columns rounded exactly as the planner rounds
    its compiled solution; the planner's repair-and-fill step then
    finishes the plan.
    """
    backend = resolve_backend(
        planner.backend if backend is None else backend,
        context.instrumentation,
    )
    model, primary, *__ = build_model(planner, context)
    solution = model.solve(backend)
    if planner.name == "lp-no-lf":
        return planner._round_and_fill(
            context, lambda node: solution.value(primary[node])
        )
    floor = 1 if planner.name == "prospector-proof" else 0
    bandwidths = {
        edge: max(floor, round_bandwidth(solution.value(primary[edge])))
        for edge in context.topology.edges
    }
    return planner._repair_and_fill(context, bandwidths)
