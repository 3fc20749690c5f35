"""Approximate top-k query plans (paper §2).

A plan assigns a bandwidth ``b_e >= 0`` to every tree edge ``e``; the
bandwidth is the maximum number of values the child endpoint may send
its parent during one collection phase.  Edges with bandwidth 0 are not
used at all (no message, so no per-message cost).

Readings travel through the library as ``(value, node_id)`` tuples so
that ordering is total even under ties; node ids break ties in favor of
higher ids, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import PlanError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology

if TYPE_CHECKING:
    from repro.plans.execution import CollectionSchedule

Reading = tuple[float, int]  # (value, node_id); tuple order totalizes ties


def tag_readings(values: Iterable[float]) -> list[Reading]:
    """Attach node ids to a readings vector (index = node id)."""
    return [(float(v), node) for node, v in enumerate(values)]


def top_k_set(values: Iterable[float], k: int) -> set[int]:
    """Node ids of the k largest readings (ties broken by node id).

    The set the ``(value, node)`` order gives — among equal values the
    higher node id wins — found by selection: ``np.partition`` yields
    the k-th largest value, every reading above it is in, and the
    highest ids among the readings equal to it fill the rest.  ``k``
    past the vector's length takes every node; ``k < 1`` none.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if k >= n:
        return set(range(n))
    if k < 1:
        return set()
    threshold = np.partition(values, n - k)[n - k]
    chosen = set((values > threshold).nonzero()[0].tolist())
    ties = (values == threshold).nonzero()[0]
    chosen.update(ties[len(chosen) - k:].tolist())
    return chosen


@dataclass(frozen=True)
class Message:
    """One radio transmission, for energy accounting.

    ``edge`` is the child endpoint for unicasts along tree edges, or the
    sending node for broadcasts (``kind='broadcast'``).
    """

    edge: int
    num_values: int
    extra_bytes: int = 0
    kind: str = "unicast"

    def cost(
        self,
        energy: EnergyModel,
        failures: LinkFailureModel | None = None,
    ) -> float:
        if self.kind == "broadcast":
            return energy.broadcast_cost(
                self.num_values * energy.value_bytes + self.extra_bytes
            )
        base = energy.message_cost(self.num_values, self.extra_bytes)
        if failures is not None:
            base += failures.expected_penalty(self.edge)
        return base


class QueryPlan:
    """A bandwidth assignment over a topology's edges.

    Parameters
    ----------
    topology:
        The network the plan is for.
    bandwidths:
        ``{edge_child_id: bandwidth}``.  Missing edges default to 0.
    requires_all_edges:
        Proof-carrying plans must use every edge (paper §4.3); when set,
        validation enforces ``b_e >= 1`` everywhere.
    """

    def __init__(
        self,
        topology: Topology,
        bandwidths: Mapping[int, int],
        requires_all_edges: bool = False,
    ) -> None:
        self.topology = topology
        self.requires_all_edges = requires_all_edges
        self._schedule = None
        self.bandwidths: dict[int, int] = {}
        for edge in topology.edges:
            b = int(bandwidths.get(edge, 0))
            if b < 0:
                raise PlanError(f"edge {edge} has negative bandwidth {b}")
            self.bandwidths[edge] = b
        for edge in bandwidths:
            if edge == topology.root or edge not in self.bandwidths:
                raise PlanError(f"bandwidth given for unknown edge {edge}")
        if requires_all_edges:
            missing = [e for e, b in self.bandwidths.items() if b < 1]
            if missing:
                raise PlanError(
                    f"proof-carrying plan must use all edges; zero on {missing[:5]}"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_chosen_nodes(
        cls, topology: Topology, chosen: Iterable[int]
    ) -> "QueryPlan":
        """Plan that forwards exactly the chosen nodes' values to the
        root with no local filtering (PROSPECTOR Greedy / LP−LF shape):
        each edge's bandwidth equals the number of chosen strict-path
        descendants, so every chosen value travels the whole way up.
        """
        chosen_set = set(chosen)
        unknown = chosen_set - set(topology.nodes)
        if unknown:
            raise PlanError(f"chosen nodes not in topology: {sorted(unknown)[:5]}")
        bandwidths = {edge: 0 for edge in topology.edges}
        for node in chosen_set:
            for edge in topology.path_edges(node):
                bandwidths[edge] += 1
        return cls(topology, bandwidths)

    @classmethod
    def naive_k(cls, topology: Topology, k: int) -> "QueryPlan":
        """The NAIVE-k plan: every edge carries ``min(k, |desc|)`` values."""
        if k < 1:
            raise PlanError("k must be >= 1")
        bandwidths = {
            edge: min(k, topology.subtree_size(edge)) for edge in topology.edges
        }
        return cls(topology, bandwidths)

    @classmethod
    def full(cls, topology: Topology) -> "QueryPlan":
        """Every edge carries its entire subtree (exhaustive collection)."""
        bandwidths = {
            edge: topology.subtree_size(edge) for edge in topology.edges
        }
        return cls(topology, bandwidths)

    # -- accessors ---------------------------------------------------------
    def bandwidth(self, edge: int) -> int:
        return self.bandwidths[edge]

    @property
    def used_edges(self) -> list[int]:
        return [edge for edge in self.topology.edges if self.bandwidths[edge] > 0]

    @property
    def visited_nodes(self) -> set[int]:
        """Nodes whose value can possibly reach the root: the root plus
        every node whose entire root path has positive bandwidth."""
        visited = {self.topology.root}
        for node in self.topology.pre_order():
            if node == self.topology.root:
                continue
            if self.bandwidths[node] > 0 and self.topology.parent(node) in visited:
                visited.add(node)
        return visited

    @property
    def schedule(self) -> "CollectionSchedule":
        """The plan's value-independent collection schedule, compiled on
        first use and kept for the plan's lifetime (see
        :class:`~repro.plans.execution.CollectionSchedule`).  It lives
        on the plan, so it is dropped with it, and pickling leaves it
        out.  A plan's bandwidths must not change once it has run.

        Threads that share a plan may race on its first use; each then
        compiles an equal schedule and one of them is kept, so no lock
        is needed."""
        schedule = self._schedule
        if schedule is None:
            # deferred: repro.plans.execution imports this module
            from repro.plans.execution import CollectionSchedule

            schedule = self._schedule = CollectionSchedule(self)
        return schedule

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_schedule"] = None  # rebuilt on first use after unpickling
        return state

    def effective_bandwidth(self, edge: int) -> int:
        """Bandwidth clipped to what the subtree can actually supply."""
        return min(self.bandwidths[edge], self.topology.subtree_size(edge))

    # -- cost --------------------------------------------------------------
    def static_cost(
        self,
        energy: EnergyModel,
        failures: LinkFailureModel | None = None,
    ) -> float:
        """The plan's budgeted collection-phase cost: one message per
        used edge, carrying that edge's (effective) bandwidth of values.
        This is what the LP's cost constraint bounds; the simulator's
        measured cost can only be lower (subtrees may supply fewer
        values than budgeted).  Edges cut off by a zero-bandwidth
        ancestor are never triggered and cost nothing.

        A one-row call of
        :func:`~repro.plans.execution.batch_static_cost`, the package's
        single cost formula.
        """
        # deferred: repro.plans.execution imports this module
        from repro.plans.execution import bandwidth_vector, batch_static_cost

        return float(
            batch_static_cost(
                self.topology, bandwidth_vector(self), energy, failures
            )[0]
        )

    def with_bandwidth(self, edge: int, bandwidth: int) -> "QueryPlan":
        """Copy of this plan with one edge's bandwidth replaced."""
        updated = dict(self.bandwidths)
        updated[edge] = bandwidth
        return QueryPlan(
            self.topology, updated, requires_all_edges=self.requires_all_edges
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryPlan):
            return NotImplemented
        return (
            self.topology is other.topology
            and self.bandwidths == other.bandwidths
            and self.requires_all_edges == other.requires_all_edges
        )

    def __hash__(self) -> int:
        return hash((id(self.topology), tuple(sorted(self.bandwidths.items()))))

    def __repr__(self) -> str:
        used = len(self.used_edges)
        total = sum(self.bandwidths.values())
        return f"QueryPlan(edges_used={used}, total_bandwidth={total})"
