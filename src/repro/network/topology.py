"""Tree-structured sensor network topology.

Nodes are integers ``0..n-1`` with the root fixed at ``0`` (the query
station side of the network).  Every non-root node ``u`` owns exactly
one tree edge ``e_u = (u, parent(u))``; throughout the library an edge
is therefore identified by its child endpoint.  This mirrors the
paper's notation where a bandwidth ``b_{e_i}`` is assigned to the edge
between node ``i`` and its parent.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import TopologyError

ROOT = 0


class Topology:
    """An immutable rooted spanning tree over ``n`` sensor nodes.

    Parameters
    ----------
    parents:
        ``parents[u]`` is the parent of node ``u``; ``parents[0]`` must
        be ``-1`` (the root has no parent).
    positions:
        Optional ``(x, y)`` coordinates per node, used by builders and
        plotting; not needed for planning.

    Notes
    -----
    Following the paper, ``anc(u)`` *includes* ``u`` itself and so does
    ``desc(u)``.  Methods taking ``include_self`` default to that
    convention.
    """

    def __init__(
        self,
        parents: Sequence[int],
        positions: Sequence[tuple[float, float]] | None = None,
    ) -> None:
        self._parents = list(parents)
        self.n = len(self._parents)
        if self.n == 0:
            raise TopologyError("topology must contain at least the root node")
        if self._parents[ROOT] != -1:
            raise TopologyError("node 0 must be the root (parent -1)")
        self.positions = list(positions) if positions is not None else None
        if self.positions is not None and len(self.positions) != self.n:
            raise TopologyError("positions length does not match node count")

        self._children: list[list[int]] = [[] for _ in range(self.n)]
        for node, parent in enumerate(self._parents):
            if node == ROOT:
                continue
            if not 0 <= parent < self.n:
                raise TopologyError(f"node {node} has out-of-range parent {parent}")
            if parent == node:
                raise TopologyError(f"node {node} is its own parent")
            self._children[parent].append(node)

        self._depth = [0] * self.n
        self._validate_and_compute_depths()
        self._post_order = self._compute_post_order()
        self._subtree_size = self._compute_subtree_sizes()
        # lazily-built derived structures; a Topology is immutable, so
        # each is computed at most once (repro.lp.fastbuild relies on
        # these staying cheap across repeated replans)
        self._descendant_sets: list[frozenset[int]] | None = None
        self._descendant_matrix: np.ndarray | None = None
        self._path_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._subtree_size_array: np.ndarray | None = None
        self._depth_array: np.ndarray | None = None

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_parent_map(cls, parent_map: Mapping[int, int], **kwargs) -> "Topology":
        """Build from a ``{child: parent}`` mapping (root omitted or -1)."""
        n = max(
            max(parent_map, default=0),
            max(parent_map.values(), default=0),
        ) + 1
        parents = [-1] * n
        for child, parent in parent_map.items():
            if child == ROOT:
                if parent != -1:
                    raise TopologyError("node 0 must be the root")
                continue
            parents[child] = parent
        for node in range(1, n):
            if parents[node] == -1:
                raise TopologyError(f"node {node} has no parent")
        return cls(parents, **kwargs)

    def _validate_and_compute_depths(self) -> None:
        seen = [False] * self.n
        seen[ROOT] = True
        stack = [ROOT]
        visited = 1
        while stack:
            node = stack.pop()
            for child in self._children[node]:
                if seen[child]:
                    raise TopologyError(f"node {child} reachable twice (cycle?)")
                seen[child] = True
                self._depth[child] = self._depth[node] + 1
                stack.append(child)
                visited += 1
        if visited != self.n:
            orphans = [node for node in range(self.n) if not seen[node]]
            raise TopologyError(f"nodes not reachable from root: {orphans[:10]}")

    def _compute_post_order(self) -> list[int]:
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(ROOT, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for child in self._children[node]:
                    stack.append((child, False))
        return order

    def _compute_subtree_sizes(self) -> list[int]:
        sizes = [1] * self.n
        for node in self._post_order:
            for child in self._children[node]:
                sizes[node] += sizes[child]
        return sizes

    # -- basic accessors --------------------------------------------------
    @property
    def root(self) -> int:
        return ROOT

    def parent(self, node: int) -> int:
        """Parent of ``node`` (-1 for the root)."""
        return self._parents[node]

    def children(self, node: int) -> tuple[int, ...]:
        return tuple(self._children[node])

    def depth(self, node: int) -> int:
        """Number of edges between ``node`` and the root."""
        return self._depth[node]

    @property
    def height(self) -> int:
        """Maximum node depth."""
        return max(self._depth)

    def subtree_size(self, node: int) -> int:
        """``|desc(node)|`` including the node itself."""
        return self._subtree_size[node]

    def is_leaf(self, node: int) -> bool:
        return not self._children[node]

    @property
    def nodes(self) -> range:
        return range(self.n)

    @property
    def edges(self) -> list[int]:
        """All tree edges, identified by their child endpoint."""
        return [node for node in range(self.n) if node != ROOT]

    @property
    def num_edges(self) -> int:
        return self.n - 1

    # -- tree walks ----------------------------------------------------------
    def post_order(self) -> list[int]:
        """Children-before-parents order (root last)."""
        return list(self._post_order)

    def pre_order(self) -> list[int]:
        """Parents-before-children order (root first)."""
        return list(reversed(self._post_order))

    def ancestors(self, node: int, include_self: bool = True) -> list[int]:
        """``anc(node)`` bottom-up; includes the root."""
        chain = [node] if include_self else []
        current = self._parents[node]
        while current != -1:
            chain.append(current)
            current = self._parents[current]
        return chain

    def path_edges(self, node: int) -> list[int]:
        """Edges on the path ``node -> root`` (edge = its child endpoint)."""
        edges = []
        current = node
        while current != ROOT:
            edges.append(current)
            current = self._parents[current]
        return edges

    def descendants(self, node: int, include_self: bool = True) -> list[int]:
        """``desc(node)`` in pre-order."""
        out = [node] if include_self else []
        stack = list(self._children[node])
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._children[current])
        return out

    def descendant_sets(self) -> list[frozenset[int]]:
        """``desc(u)`` (with self) for all nodes, computed once and cached."""
        if self._descendant_sets is None:
            sets: list[set[int]] = [{node} for node in range(self.n)]
            for node in self._post_order:
                for child in self._children[node]:
                    sets[node] |= sets[child]
            self._descendant_sets = [frozenset(s) for s in sets]
        return list(self._descendant_sets)

    def descendant_matrix(self) -> np.ndarray:
        """Cached boolean matrix ``D[u, v] = v in desc(u)`` (with self).

        Rows are nodes; the fast LP compiler uses row ``e`` of this
        matrix as the membership mask of edge ``e``'s subtree.  The
        returned array is shared — treat it as read-only.
        """
        if self._descendant_matrix is None:
            matrix = np.zeros((self.n, self.n), dtype=bool)
            for node in self._post_order:
                matrix[node, node] = True
                for child in self._children[node]:
                    matrix[node] |= matrix[child]
            matrix.setflags(write=False)
            self._descendant_matrix = matrix
        return self._descendant_matrix

    def path_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached CSR-style ``(indptr, edges)`` encoding of every root path.

        ``edges[indptr[u]:indptr[u+1]]`` equals :meth:`path_edges`\\ ``(u)``
        (bottom-up, edge = child endpoint).  Both arrays are shared —
        treat them as read-only.
        """
        if self._path_arrays is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            chunks: list[list[int]] = []
            total = 0
            for node in range(self.n):
                path = self.path_edges(node)
                total += len(path)
                indptr[node + 1] = total
                chunks.append(path)
            flat = np.fromiter(
                (edge for path in chunks for edge in path),
                dtype=np.int64,
                count=total,
            )
            indptr.setflags(write=False)
            flat.setflags(write=False)
            self._path_arrays = (indptr, flat)
        return self._path_arrays

    def subtree_size_array(self) -> np.ndarray:
        """Cached ``|desc(u)|`` per node as an int array (read-only)."""
        if self._subtree_size_array is None:
            array = np.asarray(self._subtree_size, dtype=np.int64)
            array.setflags(write=False)
            self._subtree_size_array = array
        return self._subtree_size_array

    def depth_array(self) -> np.ndarray:
        """Cached node depths as an int array (read-only)."""
        if self._depth_array is None:
            array = np.asarray(self._depth, dtype=np.int64)
            array.setflags(write=False)
            self._depth_array = array
        return self._depth_array

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True iff ``ancestor`` is on the path node -> root (or is node)."""
        current = node
        while current != -1:
            if current == ancestor:
                return True
            current = self._parents[current]
        return False

    def child_toward(self, ancestor: int, node: int) -> int:
        """The child of ``ancestor`` on the path down to ``node``.

        Requires ``ancestor`` to be a strict ancestor of ``node``.
        """
        if ancestor == node or not self.is_ancestor(ancestor, node):
            raise TopologyError(f"{ancestor} is not a strict ancestor of {node}")
        current = node
        while self._parents[current] != ancestor:
            current = self._parents[current]
        return current

    def sibling_children(self, node: int, ancestor: int) -> list[int]:
        """``sibling(node, ancestor)``: children of ``ancestor`` that are
        not ancestors of ``node`` (paper §4.3).

        When ``ancestor == node`` this is simply all of ``node``'s
        children.
        """
        if ancestor == node:
            return list(self._children[node])
        on_path = self.child_toward(ancestor, node)
        return [child for child in self._children[ancestor] if child != on_path]

    def leaves(self) -> list[int]:
        return [node for node in range(self.n) if self.is_leaf(node)]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, height={self.height})"

    # -- structural equality (useful in tests) -------------------------------
    def same_structure(self, other: "Topology") -> bool:
        return self._parents == other._parents

    def cache_token(self) -> tuple:
        """Content identity for result caches (see
        :mod:`repro.experiments.runner`): the parent vector determines
        every derived structure, so two topologies with equal tokens
        behave identically regardless of which lazy caches are built."""
        return tuple(self._parents)


def validate_readings(topology: Topology, readings: Iterable[float]) -> list[float]:
    """Check a readings vector against a topology; return it as a list."""
    if (
        isinstance(readings, np.ndarray)
        and readings.dtype == np.float64
        and readings.ndim == 1
    ):
        values = readings.tolist()  # the same Python floats, in one call
    else:
        values = [float(v) for v in readings]
    if len(values) != topology.n:
        raise TopologyError(
            f"readings length {len(values)} != node count {topology.n}"
        )
    return values
