"""Executing approximate plans: bottom-up sort-and-forward.

Upon receiving its children's value lists, a node sorts them together
with its own reading and sends the top ``b_e`` up its edge (paper §2).
Local filtering is exactly the case where a node receives more values
than its own bandwidth lets it forward.

This module also provides the fast analytic evaluation of a plan over a
sample matrix (:func:`count_topk_hits`): because any value outranking a
top-k value is itself a top-k value, the number of sample-``j`` top-k
values surviving to the root obeys the tree recursion

    survivors(u) = min(b_u, own(u) + sum over children survivors(c))

which is also how we prove (and test) that the LP+LF objective equals
the executed hit count for integral plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import PlanError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology, validate_readings
from repro.plans.plan import Message, QueryPlan, Reading


@dataclass
class CollectionResult:
    """Outcome of one collection phase for an approximate plan.

    ``messages`` and ``transmitted`` are copies of the plan's
    :class:`CollectionSchedule` (they do not depend on the readings);
    only ``returned`` is computed per phase.
    """

    returned: list[Reading]
    """Values available at the root after collection, sorted descending."""

    messages: list[Message] = field(default_factory=list)
    """One entry per used edge that actually transmitted, in post-order."""

    transmitted: dict[int, int] = field(default_factory=dict)
    """Actual number of values sent on each used edge."""

    @property
    def returned_nodes(self) -> set[int]:
        return {node for __, node in self.returned}

    def top_k_nodes(self, k: int) -> set[int]:
        return {node for __, node in self.returned[:k]}


class CollectionSchedule:
    """The value-independent part of one plan's collection phase.

    Every active node sends ``min(b_e, supply)`` values whatever the
    readings are, so a plan fixes which nodes take part, in which
    order, and the whole message log; only the identities of the
    returned values change from one phase to the next.  The schedule is
    compiled once per plan (:attr:`QueryPlan.schedule`) and shared by
    every :func:`execute_plan` call on it.

    ``pricing`` is a cache slot, keyed by the (frozen, hashable)
    :class:`~repro.network.energy.EnergyModel`, that the simulator
    fills with the schedule's per-model energy accounting.
    """

    def __init__(self, plan: QueryPlan) -> None:
        topology = plan.topology
        # Only subtrees reachable through positive bandwidths are
        # triggered at all (the distribution phase skips the rest), so
        # nodes cut off by a zero-bandwidth ancestor edge never transmit.
        active = plan.visited_nodes
        root = topology.root
        steps: list[tuple[int, int, int]] = []
        messages: list[Message] = []
        transmitted: dict[int, int] = {}
        for node in topology.post_order():
            if node == root or node not in active:
                continue
            children = [c for c in topology.children(node) if c in active]
            supply = 1 + sum(transmitted[c] for c in children)
            bandwidth = plan.bandwidths[node]
            steps.append((node, len(children), bandwidth))
            count = min(bandwidth, supply)
            messages.append(Message(node, count))
            transmitted[node] = count
        self.root = root
        self.steps: tuple[tuple[int, int, int], ...] = tuple(steps)
        """``(node, active children, bandwidth)`` per active non-root
        node, in post-order."""
        self.messages: tuple[Message, ...] = tuple(messages)
        self.transmitted = transmitted
        self.num_visited = len(active)
        self.pricing: dict = {}


def execute_plan(plan: QueryPlan, readings, priority=None) -> CollectionResult:
    """Run one collection phase of ``plan`` over a readings vector.

    Returns the values available at the root plus the message log for
    energy accounting.  Nodes below a zero-bandwidth edge neither send
    nor receive anything.

    The walk follows the plan's compiled :class:`CollectionSchedule`:
    each node merges its own reading with its active children's
    buffers and sorts only when the merge holds more values than its
    bandwidth lets it forward.  The message log and transmitted counts
    come from the schedule.

    ``priority`` optionally replaces the forwarding order: each node
    keeps the ``b`` readings with the highest ``priority(reading)``
    instead of the plainly largest.  Top-k and selection queries use
    the default (value order); quantile queries (see
    :mod:`repro.queries`) forward the readings nearest their target
    value instead.  The sorts are stable and a merge lists the node's
    own reading first, then its children's buffers in child order, so
    readings with equal priority keep the same relative order whether
    or not a buffer was sorted on the way up.
    """
    schedule = plan.schedule
    values = validate_readings(plan.topology, readings)
    # Post-order leaves a node's active children's buffers on top of
    # the stack, last child on top (the traversal visits children in
    # reverse), so they are merged in reverse stack order.
    stack: list[list[Reading]] = []
    for node, fan_in, bandwidth in schedule.steps:
        local = [(values[node], node)]
        if fan_in:
            for buffer in reversed(stack[-fan_in:]):
                local += buffer
            del stack[-fan_in:]
        if len(local) > bandwidth:
            local.sort(key=priority, reverse=True)
            del local[bandwidth:]
        stack.append(local)
    root = schedule.root
    returned = [(values[root], root)]
    for buffer in reversed(stack):
        returned += buffer
    returned.sort(reverse=True)  # the answer is reported by value
    return CollectionResult(
        returned=returned,
        messages=list(schedule.messages),
        transmitted=dict(schedule.transmitted),
    )


@dataclass
class BatchCollectionResult:
    """Outcome of executing one plan over every epoch of a trace.

    Transmitted counts are value-independent (each node sends
    ``min(b_e, supply)`` values where supply follows the tree
    recursion), so ``messages`` and ``transmitted`` describe *every*
    epoch; only the identities of the returned values vary per epoch.
    """

    returned_values: np.ndarray
    """``(E, R)`` float array, each row sorted descending."""

    returned_nodes: np.ndarray
    """``(E, R)`` int array of the owning node ids, aligned with
    ``returned_values`` (ties broken by higher node id, exactly as the
    scalar path's ``(value, node)`` tuple order)."""

    messages: list[Message] = field(default_factory=list)
    """The per-epoch message log (identical across epochs)."""

    transmitted: dict[int, int] = field(default_factory=dict)
    """Per-epoch values sent on each used edge (identical across epochs)."""

    @property
    def num_epochs(self) -> int:
        return int(self.returned_values.shape[0])

    @property
    def returned_width(self) -> int:
        """Number of values reaching the root each epoch."""
        return int(self.returned_values.shape[1])

    def top_k_nodes(self, k: int) -> np.ndarray:
        """``(E, min(k, R))`` node ids of each epoch's best returned values."""
        return self.returned_nodes[:, :k]

    def top_k_node_sets(self, k: int) -> list[set[int]]:
        return [set(map(int, row)) for row in self.returned_nodes[:, :k]]

    def returned_node_sets(self) -> list[set[int]]:
        return [set(map(int, row)) for row in self.returned_nodes]

    def epoch_result(self, epoch: int) -> CollectionResult:
        """The scalar-shaped :class:`CollectionResult` of one epoch."""
        returned = [
            (float(v), int(u))
            for v, u in zip(self.returned_values[epoch], self.returned_nodes[epoch])
        ]
        return CollectionResult(
            returned=returned,
            messages=list(self.messages),
            transmitted=dict(self.transmitted),
        )


def _sort_desc(
    values: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise descending sort in the ``(value, node)`` total order."""
    order = np.lexsort((nodes, values), axis=1)[:, ::-1]
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(nodes, order, axis=1),
    )


def sort_readings_desc(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every epoch's readings in the ``(value, node)`` descending order.

    Returns ``(E, n)`` sorted values and their node ids (ties broken by
    the higher node id, as :func:`~repro.plans.plan.top_k_set` and the
    tree recursion of :func:`execute_plan_batch` break them), so the
    first ``j`` columns are each epoch's exact top-``j``.
    """
    nodes = np.broadcast_to(np.arange(values.shape[1]), values.shape)
    return _sort_desc(values, nodes)


def validate_readings_matrix(
    topology: Topology, readings_matrix
) -> np.ndarray:
    """An ``(E, n)`` float trace for ``topology``, with ``E >= 1``."""
    values = np.asarray(readings_matrix, dtype=np.float64)
    if values.ndim != 2:
        raise PlanError(
            f"readings matrix must be 2-D (epochs, nodes), got {values.shape}"
        )
    if values.shape[0] == 0:
        raise PlanError("readings matrix must contain at least one epoch")
    if values.shape[1] != topology.n:
        raise PlanError(
            f"readings matrix covers {values.shape[1]} nodes,"
            f" topology has {topology.n}"
        )
    return values


def execute_plan_batch(
    plan: QueryPlan, readings_matrix
) -> BatchCollectionResult:
    """Run one collection phase of ``plan`` over an ``(E, n)`` trace.

    The batch equivalent of :func:`execute_plan`: one numpy tree
    recursion replaces ``E`` interpreted walks over the plan's
    :class:`CollectionSchedule`.  Each node's buffer is a pair of
    ``(E, width)`` arrays; merging children is a concatenate, and a
    merge wider than the node's bandwidth is row-wise lexsorted
    (descending in the ``(value, node)`` order) and cut to its first
    ``b_e`` columns.  Widths are epoch-independent, so no padding is
    ever needed.

    Results are exactly those of the scalar path (equivalence-tested):
    same returned values/nodes per epoch, same message log, same
    transmitted counts.  A ``priority`` forwarding order cannot be
    vectorized, so it runs epoch by epoch through :func:`execute_plan`.
    """
    topology = plan.topology
    values = validate_readings_matrix(topology, readings_matrix)

    schedule = plan.schedule
    node_ids = np.broadcast_to(np.arange(topology.n, dtype=np.int64), values.shape)
    stack: list[tuple[np.ndarray, np.ndarray]] = []

    def merge(node: int, fan_in: int) -> tuple[np.ndarray, np.ndarray]:
        """``node``'s own column beside its active children's buffers,
        which sit on top of the stack as in :func:`execute_plan`."""
        own_v = values[:, node : node + 1]
        own_n = node_ids[:, node : node + 1]
        if not fan_in:
            return own_v, own_n
        children = stack[-fan_in:]
        del stack[-fan_in:]
        return (
            np.concatenate([own_v] + [v for v, __ in children], axis=1),
            np.concatenate([own_n] + [n for __, n in children], axis=1),
        )

    # (value, node) is a total order, so a buffer that fits its
    # bandwidth forwards the same set sorted or not: sort only to cut
    for node, fan_in, bandwidth in schedule.steps:
        merged_v, merged_n = merge(node, fan_in)
        if merged_v.shape[1] > bandwidth:
            merged_v, merged_n = _sort_desc(merged_v, merged_n)
            merged_v, merged_n = merged_v[:, :bandwidth], merged_n[:, :bandwidth]
        stack.append((merged_v, merged_n))
    returned_v, returned_n = merge(schedule.root, len(stack))
    if returned_v.shape[1] > 1:
        returned_v, returned_n = _sort_desc(returned_v, returned_n)
    else:  # a lone root: its ids are still a view of ``node_ids``
        returned_n = returned_n.copy()
    return BatchCollectionResult(
        returned_values=returned_v,
        returned_nodes=returned_n,
        messages=list(schedule.messages),
        transmitted=dict(schedule.transmitted),
    )


def batch_transmitted_counts(
    topology: Topology, bandwidths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge transmitted counts and active-node masks for ``C`` plans.

    ``bandwidths`` is a ``(C, n)`` int array of bandwidth vectors
    indexed by edge child id (a 1-D vector is treated as ``C = 1``).
    Returns ``(counts, active)``: ``counts[c, u]`` is the number of
    values edge ``e_u`` transmits under plan ``c`` (0 for the root and
    for cut-off nodes), and ``active[c, u]`` marks the plan's visited
    nodes.  Counts are value-independent — each node sends ``min(b_e,
    1 + sum of children's counts)`` values — which is what lets energy
    sweeps over many plans (e.g. the per-epoch ORACLE baselines) run as
    one vectorized recursion instead of ``C`` simulated collections.
    """
    bw = np.atleast_2d(np.asarray(bandwidths, dtype=np.int64))
    num_plans = bw.shape[0]
    root = topology.root
    active = np.zeros((num_plans, topology.n), dtype=bool)
    active[:, root] = True
    for node in topology.pre_order():
        if node == root:
            continue
        active[:, node] = (bw[:, node] > 0) & active[:, topology.parent(node)]
    counts = np.zeros((num_plans, topology.n), dtype=np.int64)
    for node in topology.post_order():
        if node == root:
            continue
        supply = np.ones(num_plans, dtype=np.int64)
        for child in topology.children(node):
            supply += counts[:, child]
        counts[:, node] = np.minimum(bw[:, node], supply) * active[:, node]
    return counts, active


def count_topk_hits(plan: QueryPlan, topology_ones: set[int]) -> int:
    """Number of a sample's top-k nodes whose values reach the root.

    ``topology_ones`` is ``ones(j)``: the node set holding the sample's
    top-k values.  Uses the tree min-recursion described in the module
    docstring; agrees with :func:`execute_plan` (tested property).
    """
    topology = plan.topology
    survivors = [0] * topology.n
    for node in topology.post_order():
        count = (1 if node in topology_ones else 0) + sum(
            survivors[child] for child in topology.children(node)
        )
        if node != topology.root:
            count = min(count, plan.bandwidths[node])
        survivors[node] = count
    return survivors[topology.root]


def ones_to_matrix(n: int, ones_per_sample: Iterable[set[int]]) -> np.ndarray:
    """Pack ``ones(j)`` sets into an ``(m, n)`` boolean matrix."""
    ones_list = list(ones_per_sample)
    matrix = np.zeros((len(ones_list), n), dtype=bool)
    for j, ones in enumerate(ones_list):
        if ones:
            matrix[j, list(ones)] = True
    return matrix


def bandwidth_vector(plan: QueryPlan) -> np.ndarray:
    """A plan's bandwidths as an int array indexed by edge child id
    (the root slot is 0 and ignored by the flow recursion)."""
    vector = np.zeros(plan.topology.n, dtype=np.int64)
    for edge, bandwidth in plan.bandwidths.items():
        vector[edge] = bandwidth
    return vector


def plan_from_vector(
    topology: Topology, bandwidths: np.ndarray, requires_all_edges: bool = False
) -> QueryPlan:
    """The :class:`QueryPlan` of one bandwidth vector (inverse of
    :func:`bandwidth_vector`; the root slot is ignored)."""
    return QueryPlan(
        topology,
        {edge: int(bandwidths[edge]) for edge in topology.edges},
        requires_all_edges=requires_all_edges,
    )


def path_incidence(topology: Topology) -> np.ndarray:
    """``(n, n)`` int matrix whose row ``u`` is 1 on every edge of
    ``u``'s root path: the bandwidth a chosen node adds to a
    :meth:`QueryPlan.from_chosen_nodes` plan.  Row sums over a chosen
    set therefore give that plan's bandwidth vector."""
    indptr, path_flat = topology.path_edge_arrays()
    incidence = np.zeros((topology.n, topology.n), dtype=np.int64)
    owners = np.repeat(np.arange(topology.n), np.diff(indptr))
    incidence[owners, path_flat] = 1
    return incidence


def batch_visited(topology: Topology, bandwidths: np.ndarray) -> np.ndarray:
    """``(C, n)`` boolean mask of each candidate's visited nodes.

    Vectorized :attr:`QueryPlan.visited_nodes`: a node is visited iff
    every edge on its root path has positive bandwidth (the root always
    is).  Counts the blocked edges per root path from one gather and one
    running sum over :meth:`Topology.path_edge_arrays`.
    """
    bw = np.atleast_2d(np.asarray(bandwidths, dtype=np.int64))
    indptr, path_flat = topology.path_edge_arrays()
    blocked = np.zeros((bw.shape[0], path_flat.size + 1), dtype=np.int64)
    np.cumsum(bw[:, path_flat] <= 0, axis=1, out=blocked[:, 1:])
    return blocked[:, indptr[1:]] == blocked[:, indptr[:-1]]


def batch_static_cost(
    topology: Topology,
    bandwidths: np.ndarray,
    energy: EnergyModel,
    failures: LinkFailureModel | None = None,
) -> np.ndarray:
    """Budgeted collection cost of ``C`` candidate plans at once.

    ``bandwidths`` is a ``(C, n)`` integer array indexed by edge child
    id (a 1-D vector is treated as ``C = 1``); returns ``(C,)`` costs,
    each bitwise equal to :meth:`QueryPlan.static_cost` of that row.
    Every visited edge costs one message carrying its effective
    bandwidth, ``per_message_mj + per_byte_mj * (min(b, subtree) *
    value_bytes)``, plus the expected failure penalty when a model is
    attached; unvisited edges cost nothing.

    Edge costs are summed *sequentially* in ``topology.edges`` order
    (``np.add.accumulate``), never pairwise, so the total rounds exactly
    like the scalar per-message loop: a last-bit difference could flip
    a ``> budget`` test or a gain-per-mJ tie and change a plan.
    """
    bw = np.atleast_2d(np.asarray(bandwidths, dtype=np.int64))
    edges = np.asarray(topology.edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros(bw.shape[0])
    sent = np.minimum(bw[:, edges], topology.subtree_size_array()[edges])
    cost = energy.per_message_mj + energy.per_byte_mj * (sent * energy.value_bytes)
    if failures is not None:
        cost += failures.probability_vector(edges) * failures.reroute_vector(edges)
    cost[~batch_visited(topology, bw)[:, edges]] = 0.0
    return np.add.accumulate(cost, axis=1)[:, -1]


def batch_count_topk_hits(
    topology: Topology, bandwidths: np.ndarray, ones_matrix: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`count_topk_hits` over candidates × samples.

    Parameters
    ----------
    bandwidths:
        ``(C, n)`` integer array of candidate bandwidth vectors indexed
        by edge child id (a 1-D vector is treated as ``C = 1``).
    ones_matrix:
        ``(m, n)`` boolean matrix with ``ones_matrix[j, i] = 1`` iff
        node ``i`` holds one of sample ``j``'s top-k values.

    Returns
    -------
    ``(C, m)`` array of root survivor counts.  The tree min-recursion
    runs once per node with numpy ops across all candidates and samples.
    The rounding helpers pair it with :func:`batch_static_cost` so a
    whole round of trial plans is scored, hits and cost, as matrices,
    without building a :class:`QueryPlan` per trial.
    """
    bw = np.atleast_2d(np.asarray(bandwidths, dtype=np.int64))
    own = np.asarray(ones_matrix, dtype=np.int64).T  # (n, m): one row per node
    caps = bw.T[:, :, None]  # (n, C, 1): each node's bandwidth per candidate
    root = topology.root
    survivors: dict[int, np.ndarray] = {}
    for node in topology.post_order():
        children = topology.children(node)
        if children:
            count = survivors.pop(children[0]) + own[node]
            for child in children[1:]:
                count += survivors.pop(child)
            if node != root:
                np.minimum(count, caps[node], out=count)
        elif node != root:
            count = np.minimum(own[node], caps[node])
        else:  # a single-node network
            count = np.broadcast_to(own[node], (bw.shape[0], own.shape[1])).copy()
        survivors[node] = count
    return survivors[root]


def expected_hits(plan: QueryPlan, ones_per_sample: list[set[int]]) -> float:
    """Average top-k hits of a plan over a list of ``ones(j)`` sets."""
    if not ones_per_sample:
        return 0.0
    total = sum(count_topk_hits(plan, ones) for ones in ones_per_sample)
    return total / len(ones_per_sample)
