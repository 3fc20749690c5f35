"""Batch plan execution: the vectorized path equals the scalar oracle.

`execute_plan_batch` must be indistinguishable from running
`execute_plan` once per epoch — same returned values and owners (same
tie-breaking), same message log, same transmitted counts — for
arbitrary plans, trees and traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.plans.execution import (
    batch_transmitted_counts,
    bandwidth_vector,
    execute_plan,
    execute_plan_batch,
)
from repro.plans.plan import QueryPlan
from tests.conftest import tree_plan_readings


@st.composite
def tree_plan_trace(draw, min_epochs: int = 1, max_epochs: int = 5):
    """Tree + arbitrary bandwidth plan + an (E, n) readings matrix."""
    topology, bandwidths, __ = draw(tree_plan_readings())
    epochs = draw(st.integers(min_value=min_epochs, max_value=max_epochs))
    matrix = draw(
        st.lists(
            st.lists(
                st.integers(min_value=-50, max_value=50),
                min_size=topology.n,
                max_size=topology.n,
            ),
            min_size=epochs,
            max_size=epochs,
        )
    )
    return topology, bandwidths, np.array(matrix, dtype=np.float64)


@settings(max_examples=120, deadline=None)
@given(tree_plan_trace())
def test_batch_equals_scalar_per_epoch(data):
    topology, bandwidths, matrix = data
    plan = QueryPlan(topology, bandwidths)
    batch = execute_plan_batch(plan, matrix)
    assert batch.num_epochs == matrix.shape[0]
    for epoch, readings in enumerate(matrix):
        scalar = execute_plan(plan, readings)
        got = list(
            zip(batch.returned_values[epoch], batch.returned_nodes[epoch])
        )
        assert [(float(v), int(u)) for v, u in got] == scalar.returned
        assert batch.messages == scalar.messages
        assert batch.transmitted == scalar.transmitted


@settings(max_examples=120, deadline=None)
@given(tree_plan_trace(max_epochs=3))
def test_transmitted_counts_match_execution(data):
    topology, bandwidths, matrix = data
    plan = QueryPlan(topology, bandwidths)
    counts, active = batch_transmitted_counts(
        topology, bandwidth_vector(plan)
    )
    result = execute_plan(plan, matrix[0])
    for edge in topology.edges:
        assert counts[0, edge] == result.transmitted.get(edge, 0)
    assert {
        node for node in topology.nodes if active[0, node]
    } == plan.visited_nodes


def test_epoch_result_round_trip(small_tree):
    plan = QueryPlan.full(small_tree)
    matrix = np.arange(2 * small_tree.n, dtype=float).reshape(2, -1)
    batch = execute_plan_batch(plan, matrix)
    for epoch in (0, 1):
        scalar = execute_plan(plan, matrix[epoch])
        recovered = batch.epoch_result(epoch)
        assert recovered.returned == scalar.returned
        assert recovered.messages == scalar.messages
        assert recovered.transmitted == scalar.transmitted
    assert batch.top_k_node_sets(2) == [
        execute_plan(plan, row).top_k_nodes(2) for row in matrix
    ]
    assert batch.returned_node_sets() == [
        execute_plan(plan, row).returned_nodes for row in matrix
    ]


class TestShapeValidation:
    def test_rejects_one_dimensional_input(self, small_tree):
        plan = QueryPlan.full(small_tree)
        with pytest.raises(PlanError, match="2-D"):
            execute_plan_batch(plan, np.zeros(small_tree.n))

    def test_rejects_empty_trace(self, small_tree):
        plan = QueryPlan.full(small_tree)
        with pytest.raises(PlanError, match="at least one epoch"):
            execute_plan_batch(plan, np.zeros((0, small_tree.n)))

    def test_rejects_wrong_node_count(self, small_tree):
        plan = QueryPlan.full(small_tree)
        with pytest.raises(PlanError, match="nodes"):
            execute_plan_batch(plan, np.zeros((3, small_tree.n + 1)))
