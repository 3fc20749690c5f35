"""Unit tests for the QueryPlan representation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.plans.plan import Message, QueryPlan, tag_readings, top_k_set


def sorted_top_k_set(values, k: int) -> set[int]:
    """The sort oracle: the first ``k`` of every ``(value, node)`` tuple
    sorted descending (the higher node id wins a tie)."""
    tagged = sorted(tag_readings(values), reverse=True)
    return {node for __, node in tagged[:k]}


# heavy integer ties, signed zeros and arbitrary finite floats
_READING = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestHelpers:
    def test_tag_readings(self):
        assert tag_readings([3.0, 1.0]) == [(3.0, 0), (1.0, 1)]

    def test_top_k_set(self):
        assert top_k_set([5.0, 9.0, 1.0, 7.0], 2) == {1, 3}

    def test_top_k_ties_broken_by_node_id(self):
        # equal values: the higher node id ranks first
        assert top_k_set([4.0, 4.0, 4.0], 1) == {2}
        assert top_k_set([4.0, 4.0, 4.0], 2) == {1, 2}
        # a signed zero ties with zero
        assert top_k_set([0.0, -0.0, -1.0], 1) == {1}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_selection_matches_the_sort_oracle(self, data):
        values = data.draw(st.lists(_READING, min_size=1, max_size=40))
        k = data.draw(st.integers(1, len(values) + 1))
        assert top_k_set(values, k) == sorted_top_k_set(values, k)


class TestQueryPlanConstruction:
    def test_missing_edges_default_zero(self, small_tree):
        plan = QueryPlan(small_tree, {1: 2})
        assert plan.bandwidth(1) == 2
        assert plan.bandwidth(5) == 0

    def test_rejects_negative_bandwidth(self, small_tree):
        with pytest.raises(PlanError, match="negative"):
            QueryPlan(small_tree, {1: -1})

    def test_rejects_root_edge(self, small_tree):
        with pytest.raises(PlanError, match="unknown edge"):
            QueryPlan(small_tree, {0: 1})

    def test_rejects_unknown_edge(self, small_tree):
        with pytest.raises(PlanError, match="unknown edge"):
            QueryPlan(small_tree, {42: 1})

    def test_requires_all_edges_enforced(self, small_tree):
        with pytest.raises(PlanError, match="all edges"):
            QueryPlan(small_tree, {e: 0 for e in small_tree.edges},
                      requires_all_edges=True)
        plan = QueryPlan(small_tree, {e: 1 for e in small_tree.edges},
                         requires_all_edges=True)
        assert plan.requires_all_edges

    def test_from_chosen_nodes(self, small_tree):
        plan = QueryPlan.from_chosen_nodes(small_tree, {3, 6})
        assert plan.bandwidth(3) == 1
        assert plan.bandwidth(1) == 1
        assert plan.bandwidth(6) == 1
        assert plan.bandwidth(5) == 1
        assert plan.bandwidth(2) == 1
        assert plan.bandwidth(4) == 0
        # choosing the root adds no bandwidth anywhere
        same = QueryPlan.from_chosen_nodes(small_tree, {0, 3, 6})
        assert same.bandwidths == plan.bandwidths

    def test_from_chosen_nodes_shares_edges(self, small_tree):
        plan = QueryPlan.from_chosen_nodes(small_tree, {3, 4})
        assert plan.bandwidth(1) == 2

    def test_from_chosen_rejects_unknown(self, small_tree):
        with pytest.raises(PlanError, match="not in topology"):
            QueryPlan.from_chosen_nodes(small_tree, {99})

    def test_naive_k(self, small_tree):
        plan = QueryPlan.naive_k(small_tree, 2)
        assert plan.bandwidth(3) == 1  # leaf subtree of size 1
        assert plan.bandwidth(1) == 2  # subtree of size 3, capped at k
        with pytest.raises(PlanError):
            QueryPlan.naive_k(small_tree, 0)

    def test_full(self, small_tree):
        plan = QueryPlan.full(small_tree)
        assert plan.bandwidth(1) == 3
        assert plan.bandwidth(2) == 3


class TestPlanProperties:
    def test_used_edges_and_visited_nodes(self, small_tree):
        plan = QueryPlan(small_tree, {1: 1, 3: 1})
        assert set(plan.used_edges) == {1, 3}
        assert plan.visited_nodes == {0, 1, 3}

    def test_visited_excludes_cut_off_subtrees(self, small_tree):
        # node 6 has bandwidth but its ancestors do not
        plan = QueryPlan(small_tree, {6: 1})
        assert plan.visited_nodes == {0}

    def test_effective_bandwidth_clips_to_subtree(self, small_tree):
        plan = QueryPlan(small_tree, {1: 50})
        assert plan.effective_bandwidth(1) == 3

    def test_with_bandwidth_copies(self, small_tree):
        plan = QueryPlan(small_tree, {1: 1})
        other = plan.with_bandwidth(1, 3)
        assert plan.bandwidth(1) == 1
        assert other.bandwidth(1) == 3

    def test_equality_and_hash(self, small_tree):
        a = QueryPlan(small_tree, {1: 1})
        b = QueryPlan(small_tree, {1: 1})
        assert a == b and hash(a) == hash(b)
        assert a != QueryPlan(small_tree, {1: 2})
        assert a.__eq__(42) is NotImplemented

    def test_repr(self, small_tree):
        assert "edges_used=1" in repr(QueryPlan(small_tree, {1: 1}))


class TestCost:
    def test_static_cost_counts_messages_and_values(self, small_tree):
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.5)
        plan = QueryPlan(small_tree, {1: 2, 3: 1, 4: 1})
        # three messages; values: 1 + 1 + 2
        assert plan.static_cost(energy) == pytest.approx(3 * 1.0 + 4 * 0.5)

    def test_static_cost_ignores_cut_off_edges(self, small_tree):
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.0)
        plan = QueryPlan(small_tree, {6: 3})
        assert plan.static_cost(energy) == 0.0

    def test_static_cost_with_failures(self, small_tree):
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.0)
        failures = LinkFailureModel(
            failure_probability={1: 0.5}, reroute_extra_mj={1: 4.0}
        )
        plan = QueryPlan(small_tree, {1: 1})
        assert plan.static_cost(energy, failures) == pytest.approx(1.0 + 2.0)


class TestMessage:
    def test_unicast_cost(self):
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.25)
        assert Message(1, 4).cost(energy) == pytest.approx(2.0)

    def test_broadcast_cost(self):
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.25)
        message = Message(1, 0, kind="broadcast")
        assert message.cost(energy) == pytest.approx(0.5)

    def test_failure_penalty_only_on_unicast(self):
        energy = EnergyModel.uniform(per_message_mj=1.0, per_value_mj=0.0)
        failures = LinkFailureModel(
            failure_probability={1: 1.0}, reroute_extra_mj={1: 3.0}
        )
        assert Message(1, 0).cost(energy, failures) == pytest.approx(4.0)
        broadcast = Message(1, 0, kind="broadcast")
        assert broadcast.cost(energy, failures) == pytest.approx(0.5)
