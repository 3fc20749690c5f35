"""Fast-path compilation of the PROSPECTOR LPs to standard-form arrays.

An algebraic modeling layer allocates one Python object per variable
and several per constraint term; for LP+LF at n=60, m=25 that is tens
of thousands of allocations, and *build* time dominates solve time —
the same pathology the paper reports for its CPLEX runs (§5 "Other
Results").

This module lowers each formulation **directly** to COO triplets with
numpy and assembles a :class:`~repro.lp.standard_form.StandardForm`;
it is the only way the planners compile.  Its rows, columns,
coefficients, bounds, and objective are bitwise identical to the
algebraic builders kept as a test oracle in
``tests/lp/_algebraic_oracle.py`` (compiled by that oracle's
``compile_model``), and ``tests/lp/test_fastbuild.py`` checks that
equivalence.

On top of the compilers sits :class:`ReplanCache`: the constraint
blocks that do not depend on the sample matrix (edge-use rows, path
rows, budget-row coefficients, bounds) are memoized per topology
content token + energy-cost fingerprint (+ ``k``), which is exactly the
regime :class:`~repro.query.engine.TopKEngine` replans live in — same
tree, sliding sample window.  A window slide then only rebuilds the
``ones(j)``-dependent rows.  Each compile is one ``compile`` span;
cache hits/misses and the span's duration land in :mod:`repro.obs`
under ``fastbuild.cache.hits`` / ``fastbuild.cache.misses`` /
``fastbuild.compile_seconds.<name>``.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import sparse

from repro.lp.standard_form import StandardForm
from repro.obs.spans import maybe_span

__all__ = [
    "CompiledLP",
    "ParametricForm",
    "ReplanCache",
    "compile_lp_no_lf",
    "compile_lp_no_lf_parametric",
    "compile_lp_lf",
    "compile_lp_lf_parametric",
    "compile_proof",
    "compile_proof_parametric",
]


@dataclass
class CompiledLP:
    """A formulation lowered straight to solver arrays.

    Attributes
    ----------
    name:
        The formulation's model name (matches the algebraic oracle's,
        so observability series line up).
    form:
        The standard-form arrays, ready for ``backend.solve_form``.
    column_names:
        One name per column, identical to the algebraic model's
        variable names in the same order (used by the equivalence
        tests and for debugging).
    primary_columns:
        The columns a planner reads the plan off of: ``edge -> b``
        column for the bandwidth formulations, ``node -> x`` column
        for LP−LF.
    """

    name: str
    form: StandardForm
    column_names: list[str]
    primary_columns: dict[int, int]


@dataclass
class ParametricForm:
    """A compiled formulation with one designated scalar RHS slot.

    All three PROSPECTOR formulations place the energy budget in
    exactly one coefficient of the assembled arrays: the last ``b_ub``
    entry (the budget row).  A budget sweep therefore compiles **once**
    (through the :class:`ReplanCache` like any other compile) and each
    sweep member just patches that one float — via
    ``backend.solve_batch`` (one loaded HiGHS session, each member
    after the first warm from the previous member's basis), or via
    :meth:`form_for` for an independent cold solve.

    ``rhs_of`` maps a budget to the slot's value using the *same* float
    arithmetic as a cold compile at that budget, so a patched form is
    bitwise identical to a freshly compiled one.

    Attributes
    ----------
    compiled:
        The underlying :class:`CompiledLP` (compiled at the context's
        own budget).
    row:
        Index of the scalar slot within ``form.b_ub``.
    rhs_of:
        Budget → RHS-slot value, replicating the cold-compile
        arithmetic bit for bit.
    rhs_intercept:
        When not ``None``, ``rhs_of`` is exactly
        ``budget + rhs_intercept`` in IEEE arithmetic — the shape both
        bandwidth formulations share (``budget - acquisition``, and
        ``a - b == a + (-b)`` bitwise).  This is what lets the
        cross-process artifact store persist and reconstruct the
        parametric slot without pickling the closure; forms with a
        non-affine slot leave it ``None`` and simply are not spilled.
    """

    compiled: CompiledLP
    row: int
    rhs_of: Callable[[float], float]
    rhs_intercept: float | None = None

    @property
    def name(self) -> str:
        return self.compiled.name

    @property
    def form(self) -> StandardForm:
        return self.compiled.form

    @property
    def primary_columns(self) -> dict[int, int]:
        return self.compiled.primary_columns

    def rhs_values(self, budgets) -> np.ndarray:
        """RHS-slot values for a sequence of budgets."""
        return np.array([self.rhs_of(float(b)) for b in budgets])

    def form_for_rhs(self, rhs: float) -> StandardForm:
        """An independent :class:`StandardForm` with the slot patched.

        The coefficient arrays are shared (they are never mutated by
        the solvers); only ``b_ub`` is copied.
        """
        b_ub = self.form.b_ub.copy()
        b_ub[self.row] = rhs
        return replace(self.form, b_ub=b_ub)

    def form_for(self, budget: float) -> StandardForm:
        """Patched form for one budget — the cold-solve oracle entry."""
        return self.form_for_rhs(self.rhs_of(float(budget)))


class ReplanCache:
    """Memoizes sample-independent constraint blocks across replans.

    Entries are keyed on **content**: ``(formulation,
    topology.cache_token(), k, cost-fingerprint)``.  The token is the
    parent vector, which determines every derived structure, so two
    structurally equal trees share entries — the property the
    cross-session caches of :mod:`repro.service.cache` rely on.  Each
    hit is additionally verified with ``same_structure`` against the
    stored topology, so a hand-built key can never alias a different
    tree.  A topology change, a ``k`` change, or any change to the
    energy costs (including link-failure penalty drift) misses and
    rebuilds; a pure sample-window slide hits.

    The cache is a bounded LRU (a hit refreshes recency; beyond
    ``capacity`` the least-recently-used entry is evicted and counted
    in ``evictions``) and is safe for concurrent access: lookups and
    inserts hold an internal lock, which is what lets one instance be
    shared by every session of a :class:`~repro.service.server.TopKService`.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("replan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, topology) -> dict | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not entry["topology"].same_structure(topology):
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, topology, entry: dict) -> dict:
        entry["topology"] = topology
        with self._lock:
            if key not in self._entries:
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self) -> dict:
        # a cache's warmth is not part of its owner's identity, and the
        # lock is process-local: pickled copies (experiment-runner
        # content fingerprints, process-pool workers) start empty
        return {"capacity": self.capacity}

    def __setstate__(self, state: dict) -> None:
        self.__init__(capacity=state["capacity"])


# -- shared helpers ---------------------------------------------------------


def _cost_fingerprint(context) -> tuple:
    """The energy quantities the static blocks depend on.

    Edge costs include the expected link-failure penalty, which drifts
    as the engine observes failures — so a drifted model naturally
    invalidates the cache.
    """
    edge_costs = tuple(context.edge_cost(edge) for edge in context.topology.edges)
    return (edge_costs, context.per_value, context.energy.acquisition_mj)


def _fetch_static(cache, obs, key, topology, build):
    """Cache lookup with obs counters; ``cache=None`` always builds."""
    if cache is None:
        return build()
    with maybe_span(obs, "cache") as span:
        entry = cache.get(key, topology)
        span.annotate(hit=entry is not None)
    if entry is not None:
        if obs is not None:
            obs.counter("fastbuild.cache.hits").inc()
        return entry
    if obs is not None:
        obs.counter("fastbuild.cache.misses").inc()
    return cache.put(key, topology, build())


def _observed_compile(formulation: str):
    """Run a compiler in a ``compile`` span whose duration feeds
    ``fastbuild.compile_seconds.<formulation>``; without instrumentation
    on the context the compiler runs bare."""
    histogram = f"fastbuild.compile_seconds.{formulation}"

    def decorate(compiler):
        @functools.wraps(compiler)
        def compile_observed(context, *args, **kwargs):
            obs = context.instrumentation
            if obs is None:
                return compiler(context, *args, **kwargs)
            with obs.span("compile", formulation=formulation) as span:
                compiled = compiler(context, *args, **kwargs)
            obs.histogram(histogram).observe(span.duration_s)
            return compiled

        return compile_observed

    return decorate


def _ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices for concatenating ``arr[s:s+c]`` slices without a loop."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + offsets


def _assemble(
    *,
    c: np.ndarray,
    constant: float,
    maximize: bool,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    b_ub: np.ndarray,
    bounds: list,
) -> StandardForm:
    """Pack COO triplets into a minimized StandardForm (the costs of a
    maximization negated), with an empty equality block."""
    if maximize:
        c = -c
        constant = -constant
    n = len(c)
    a_ub = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(len(b_ub), n)
    ).tocsr()
    a_eq = sparse.coo_matrix(([], ([], [])), shape=(0, n)).tocsr()
    return StandardForm(
        c=c,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=np.asarray([], dtype=float),
        bounds=bounds,
        objective_constant=constant,
        maximize=maximize,
    )


def _edge_budget_costs(context) -> np.ndarray:
    """Per-edge ``edge_cost + acquisition`` budget coefficients.

    Computed with the same per-edge float arithmetic as the algebraic
    builders so the assembled arrays are bit-identical.
    """
    acquisition = context.energy.acquisition_mj
    return np.array(
        [context.edge_cost(edge) + acquisition for edge in context.topology.edges],
        dtype=float,
    )


# -- PROSPECTOR LP−LF -------------------------------------------------------


@_observed_compile("prospector-lp-no-lf")
def compile_lp_no_lf(context, cache: ReplanCache | None = None) -> CompiledLP:
    """Lower PROSPECTOR LP−LF (paper §4.1) to standard-form arrays.

    Columns: ``x_i`` per node, then ``y_e`` per edge.  Rows: the path
    constraints (node order, bottom-up edges), then the budget row —
    the exact order of the algebraic oracle's builder.
    """
    obs = context.instrumentation
    topology = context.topology
    n = topology.n
    edges = np.asarray(topology.edges, dtype=np.int64)
    num_edges = edges.size
    y_col_of = np.full(n, -1, dtype=np.int64)
    y_col_of[edges] = n + np.arange(num_edges)

    key = (
        "lp-no-lf", topology.cache_token(), context.k,
        _cost_fingerprint(context),
    )

    def build_static() -> dict:
        indptr, path_flat = topology.path_edge_arrays()
        counts = indptr[edges + 1] - indptr[edges]
        gather = _ragged_gather(indptr[edges], counts)
        path_cols = y_col_of[path_flat[gather]]
        num_path = gather.size
        path_rows = np.arange(num_path, dtype=np.int64)
        budget_row = num_path
        x_budget = (
            topology.depth_array()[edges] * context.per_value
        ).astype(float)
        rows = np.concatenate(
            [
                path_rows,
                path_rows,
                np.full(num_edges, budget_row, dtype=np.int64),
                np.full(num_edges, budget_row, dtype=np.int64),
            ]
        )
        cols = np.concatenate(
            [
                np.repeat(edges, counts),  # x columns (node id == column)
                path_cols,
                y_col_of[edges],
                edges,
            ]
        )
        vals = np.concatenate(
            [
                np.ones(num_path),
                -np.ones(num_path),
                _edge_budget_costs(context),
                x_budget,
            ]
        )
        bounds = [(0.0, 1.0)] * (n + num_edges)
        names = [f"x_{node}" for node in range(n)] + [
            f"y_{edge}" for edge in edges
        ]
        return {
            "rows": rows,
            "cols": cols,
            "vals": vals,
            "num_rows": num_path + 1,
            "bounds": bounds,
            "names": names,
        }

    static = _fetch_static(cache, obs, key, topology, build_static)

    b_ub = np.zeros(static["num_rows"])
    b_ub[-1] = context.budget - context.energy.acquisition_mj  # RHS slot

    counts = context.samples.column_counts()
    c = np.zeros(n + num_edges)
    c[:n] = np.asarray(counts, dtype=float)

    form = _assemble(
        c=c,
        constant=0.0,
        maximize=True,
        rows=static["rows"],
        cols=static["cols"],
        vals=static["vals"],
        b_ub=b_ub,
        bounds=list(static["bounds"]),
    )
    return CompiledLP(
        name="prospector-lp-no-lf",
        form=form,
        column_names=list(static["names"]),
        primary_columns={node: node for node in range(n)},
    )


# -- PROSPECTOR LP+LF -------------------------------------------------------


@_observed_compile("prospector-lp-lf")
def compile_lp_lf(context, cache: ReplanCache | None = None) -> CompiledLP:
    """Lower PROSPECTOR LP+LF (paper §4.2) to standard-form arrays.

    Columns: ``b_e`` per edge, ``y_e`` per edge, then ``z_{j,i}`` per
    sample-matrix 1-entry (``j`` ascending, nodes ascending within a
    sample).  Rows: edge-use rows, path rows, bandwidth rows, budget —
    matching the algebraic oracle's builder exactly.
    """
    obs = context.instrumentation
    topology = context.topology
    samples = context.samples
    n = topology.n
    edges = np.asarray(topology.edges, dtype=np.int64)
    num_edges = edges.size
    b_col_of = np.full(n, -1, dtype=np.int64)
    b_col_of[edges] = np.arange(num_edges)
    y_col_of = np.full(n, -1, dtype=np.int64)
    y_col_of[edges] = num_edges + np.arange(num_edges)

    key = (
        "lp-lf", topology.cache_token(), context.k,
        _cost_fingerprint(context),
    )

    def build_static() -> dict:
        subtree = topology.subtree_size_array()[edges].astype(float)
        use_rows = np.arange(num_edges, dtype=np.int64)
        return {
            "use_rows": np.concatenate([use_rows, use_rows]),
            "use_cols": np.concatenate([b_col_of[edges], y_col_of[edges]]),
            "use_vals": np.concatenate([np.ones(num_edges), -subtree]),
            "budget_y": _edge_budget_costs(context),
            "budget_b": np.full(num_edges, context.per_value, dtype=float),
            "bounds_by": [(0.0, float(s)) for s in subtree]
            + [(0.0, 1.0)] * num_edges,
            "names_by": [f"b_{edge}" for edge in edges]
            + [f"y_{edge}" for edge in edges],
        }

    static = _fetch_static(cache, obs, key, topology, build_static)

    # -- z layout: the matrix's 1-entries in row-major order, which
    # is exactly (j ascending, node ascending)
    num_samples = samples.num_samples
    z_sample, z_nodes = np.nonzero(np.asarray(samples.matrix, dtype=bool))
    num_z = z_nodes.size
    z_base = 2 * num_edges

    # -- (7) path rows: one per (z variable, ancestor edge)
    indptr, path_flat = topology.path_edge_arrays()
    path_counts = indptr[z_nodes + 1] - indptr[z_nodes]
    gather = _ragged_gather(indptr[z_nodes], path_counts)
    num_path = gather.size
    path_row_ids = num_edges + np.arange(num_path, dtype=np.int64)
    path_z_cols = z_base + np.repeat(
        np.arange(num_z, dtype=np.int64), path_counts
    )
    path_edge_positions = b_col_of[path_flat[gather]]
    path_y_cols = num_edges + path_edge_positions

    # -- (8) bandwidth rows.  Node i sits in edge e's subtree iff e
    # lies on i's root path, so the member entries of the bw rows
    # are the path-row gather regrouped by (sample, edge); one
    # bincount finds which (sample, edge) groups are nonempty.
    entry_groups = (
        np.repeat(z_sample, path_counts) * num_edges + path_edge_positions
    )
    member_counts = np.bincount(
        entry_groups, minlength=num_samples * num_edges
    )
    active = member_counts > 0
    num_bw = int(np.count_nonzero(active))
    bw_base = num_edges + num_path
    bw_row_lookup = np.cumsum(active) - 1  # group -> bw row rank
    bw_z_rows = bw_base + bw_row_lookup[entry_groups]
    bw_b_rows = bw_base + np.arange(num_bw, dtype=np.int64)
    bw_b_cols = np.flatnonzero(active) % num_edges

    budget_row = bw_base + num_bw
    num_rows = budget_row + 1

    rows = np.concatenate(
        [
            static["use_rows"],
            path_row_ids,
            path_row_ids,
            bw_z_rows,
            bw_b_rows,
            np.full(2 * num_edges, budget_row, dtype=np.int64),
        ]
    )
    cols = np.concatenate(
        [
            static["use_cols"],
            path_z_cols,
            path_y_cols,
            path_z_cols,  # the bw-row z entries reuse the path gather
            bw_b_cols,
            y_col_of[edges],
            b_col_of[edges],
        ]
    )
    vals = np.concatenate(
        [
            static["use_vals"],
            np.ones(num_path),
            -np.ones(num_path),
            np.ones(num_path),
            -np.ones(num_bw),
            static["budget_y"],
            static["budget_b"],
        ]
    )
    b_ub = np.zeros(num_rows)
    b_ub[-1] = context.budget - context.energy.acquisition_mj

    c = np.zeros(z_base + num_z)
    c[z_base:] = 1.0
    bounds = list(static["bounds_by"]) + [(0.0, 1.0)] * num_z
    names = list(static["names_by"]) + [
        f"z_{j}_{node}"
        for j, node in zip(z_sample.tolist(), z_nodes.tolist())
    ]

    form = _assemble(
        c=c,
        constant=0.0,
        maximize=True,
        rows=rows,
        cols=cols,
        vals=vals,
        b_ub=b_ub,
        bounds=bounds,
    )
    return CompiledLP(
        name="prospector-lp-lf",
        form=form,
        column_names=names,
        primary_columns={
            int(edge): int(b_col_of[edge]) for edge in edges
        },
    )


# -- PROSPECTOR-Proof -------------------------------------------------------


@_observed_compile("prospector-proof")
def compile_proof(context, *, budget_rhs: float) -> CompiledLP:
    """Lower PROSPECTOR-Proof (paper §4.3) to standard-form arrays.

    ``budget_rhs`` is the right-hand side of the budget row *before*
    folding the constant per-message costs — i.e. the planner's
    ``budget - reserve - acquisition_total`` — so the reserve policy
    stays in :class:`~repro.planners.proof.ProofPlanner`.

    Columns: ``b_e`` per edge, then ``p_{j,i,a}`` blocks (``j``
    ascending, nodes ascending, ancestors bottom-up).  Rows per sample:
    chain rows, bandwidth rows, support rows; the budget row is last.
    The chain/bandwidth blocks and the support *pair list* are
    sample-independent and computed once per compile; only the support
    memberships and the objective consult the sample values.
    """
    topology = context.topology
    samples = context.samples
    n = topology.n
    edges = np.asarray(topology.edges, dtype=np.int64)
    num_edges = edges.size
    depth = topology.depth_array()
    chain_len = depth + 1
    node_offset = np.concatenate([[0], np.cumsum(chain_len)])
    p_per_sample = int(node_offset[-1])
    num_samples = samples.num_samples

    def p_rel(nodes: np.ndarray, anc_depth: np.ndarray) -> np.ndarray:
        """Column of ``p_{·,node,anc}`` relative to its sample block."""
        return node_offset[nodes] + depth[nodes] - anc_depth

    # -- sample-independent templates (relative columns, relative rows)
    # (13) chain rows: depth[u] rows per node, consecutive chain cols
    chain_counts = depth.copy()
    below_rel = _ragged_gather(node_offset[:-1], chain_counts)
    above_rel = below_rel + 1
    num_chain = below_rel.size
    chain_rows_rel = np.arange(num_chain, dtype=np.int64)

    # (12) bandwidth rows: one per edge, entries over its subtree
    desc = topology.descendant_matrix()
    parents = np.array(
        [topology.parent(int(edge)) for edge in edges], dtype=np.int64
    )
    bw_edge_idx, bw_nodes = np.nonzero(desc[edges])
    bw_p_rel = p_rel(bw_nodes, depth[parents[bw_edge_idx]])
    bw_rows_rel = num_chain + bw_edge_idx
    bw_b_rows_rel = num_chain + np.arange(num_edges, dtype=np.int64)

    # (14) support pairs (node, ancestor, sibling child), in the
    # algebraic iteration order; memberships are filled in per sample
    pair_nodes: list[int] = []
    pair_anc_rel: list[int] = []
    pair_siblings: list[int] = []
    for node in range(n):
        for position, anc in enumerate(topology.ancestors(node)):
            for sibling in topology.sibling_children(node, anc):
                pair_nodes.append(node)
                pair_anc_rel.append(int(node_offset[node]) + position)
                pair_siblings.append(sibling)
    pair_nodes_arr = np.asarray(pair_nodes, dtype=np.int64)
    pair_anc_rel_arr = np.asarray(pair_anc_rel, dtype=np.int64)
    pair_siblings_arr = np.asarray(pair_siblings, dtype=np.int64)
    pair_desc = (
        desc[pair_siblings_arr]
        if pair_siblings_arr.size
        else np.zeros((0, n), dtype=bool)
    )

    node_ids = np.arange(n, dtype=np.int64)
    values = samples.values

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    row_cursor = 0
    c = np.zeros(num_edges + num_samples * p_per_sample)
    for j in range(num_samples):
        p_base = num_edges + j * p_per_sample
        # chain block
        rows_parts.append(row_cursor + chain_rows_rel)
        cols_parts.append(p_base + above_rel)
        vals_parts.append(np.ones(num_chain))
        rows_parts.append(row_cursor + chain_rows_rel)
        cols_parts.append(p_base + below_rel)
        vals_parts.append(-np.ones(num_chain))
        # bandwidth block
        rows_parts.append(row_cursor + bw_rows_rel)
        cols_parts.append(p_base + bw_p_rel)
        vals_parts.append(np.ones(bw_p_rel.size))
        rows_parts.append(row_cursor + bw_b_rows_rel)
        cols_parts.append(np.arange(num_edges, dtype=np.int64))
        vals_parts.append(-np.ones(num_edges))
        row_cursor += num_chain + num_edges
        # support block: smaller(i, j) under the (value, id) order
        row = values[j]
        smaller = (row[None, :] < row[:, None]) | (
            (row[None, :] == row[:, None])
            & (node_ids[None, :] < node_ids[:, None])
        )
        support = pair_desc & smaller[pair_nodes_arr]
        has_support = np.flatnonzero(support.any(axis=1))
        if has_support.size:
            rows_parts.append(
                row_cursor + np.arange(has_support.size, dtype=np.int64)
            )
            cols_parts.append(p_base + pair_anc_rel_arr[has_support])
            vals_parts.append(np.ones(has_support.size))
            sel_idx, support_nodes = np.nonzero(support[has_support])
            cols_parts.append(
                p_base
                + p_rel(
                    support_nodes,
                    depth[pair_siblings_arr[has_support][sel_idx]],
                )
            )
            rows_parts.append(row_cursor + sel_idx)
            vals_parts.append(-np.ones(sel_idx.size))
            row_cursor += has_support.size
        # (10) objective: top-k values proven at the root
        ones_j = np.flatnonzero(samples.matrix[j])
        c[p_base + node_offset[ones_j] + depth[ones_j]] = 1.0

    # (11) budget row, constants folded exactly like Constraint.build
    constant = 0.0
    for edge in edges:
        constant += context.edge_cost(int(edge))
    budget_row = row_cursor
    rows_parts.append(np.full(num_edges, budget_row, dtype=np.int64))
    cols_parts.append(np.arange(num_edges, dtype=np.int64))
    vals_parts.append(np.full(num_edges, context.per_value, dtype=float))
    b_ub = np.zeros(budget_row + 1)
    b_ub[-1] = -(constant - budget_rhs)

    subtree = topology.subtree_size_array()[edges]
    bounds = [(1.0, float(s)) for s in subtree] + [(0.0, 1.0)] * (
        num_samples * p_per_sample
    )
    names = [f"b_{edge}" for edge in edges]
    for j in range(num_samples):
        for node in range(n):
            for anc in topology.ancestors(node):
                names.append(f"p_{j}_{node}_{anc}")

    form = _assemble(
        c=c,
        constant=0.0,
        maximize=True,
        rows=np.concatenate(rows_parts),
        cols=np.concatenate(cols_parts),
        vals=np.concatenate(vals_parts),
        b_ub=b_ub,
        bounds=bounds,
    )
    return CompiledLP(
        name="prospector-proof",
        form=form,
        column_names=names,
        primary_columns={
            int(edge): position for position, edge in enumerate(edges)
        },
    )


# -- parametric entry points ------------------------------------------------


def _budget_slot(compiled: CompiledLP) -> int:
    return len(compiled.form.b_ub) - 1


def compile_lp_no_lf_parametric(
    context, cache: ReplanCache | None = None
) -> ParametricForm:
    """LP−LF with the budget row's RHS exposed as the parametric slot."""
    acquisition = context.energy.acquisition_mj
    compiled = compile_lp_no_lf(context, cache)
    return ParametricForm(
        compiled=compiled,
        row=_budget_slot(compiled),
        rhs_of=lambda budget: budget - acquisition,
        rhs_intercept=-acquisition,
    )


def compile_lp_lf_parametric(
    context, cache: ReplanCache | None = None
) -> ParametricForm:
    """LP+LF with the budget row's RHS exposed as the parametric slot."""
    acquisition = context.energy.acquisition_mj
    compiled = compile_lp_lf(context, cache)
    return ParametricForm(
        compiled=compiled,
        row=_budget_slot(compiled),
        rhs_of=lambda budget: budget - acquisition,
        rhs_intercept=-acquisition,
    )


def compile_proof_parametric(
    context, *, budget_rhs_of: Callable[[float], float]
) -> ParametricForm:
    """Proof with the budget row's RHS exposed as the parametric slot.

    ``budget_rhs_of`` maps a budget to the planner-level ``budget_rhs``
    (budget minus reserve minus total acquisition), keeping the reserve
    policy in :class:`~repro.planners.proof.ProofPlanner`.  The slot
    value then folds the constant per-message costs with the same
    left-associated float arithmetic as :func:`compile_proof`.
    """
    compiled = compile_proof(
        context, budget_rhs=budget_rhs_of(context.budget)
    )
    constant = 0.0
    for edge in context.topology.edges:
        constant += context.edge_cost(int(edge))
    return ParametricForm(
        compiled=compiled,
        row=_budget_slot(compiled),
        rhs_of=lambda budget: -(constant - budget_rhs_of(budget)),
    )
