"""Batched trace-level simulation (the "install once, run many" path).

The paper's evaluation installs a plan once and replays it over every
epoch of a trace (§5).  :class:`~repro.simulation.runtime.Simulator`
replays one epoch at a time (the served path, and the reference the
batch path is tested against); :class:`BatchSimulator` evaluates the
whole ``(E, n)`` readings matrix in one vectorized pass:

- plan execution is one numpy tree recursion
  (:func:`~repro.plans.execution.execute_plan_batch`) instead of ``E``
  interpreted walks;
- energy accounting exploits that per-epoch message counts are
  value-independent: the base collection cost is a single scalar, and
  only failure retries vary per epoch;
- link-failure draws are one ``rng.random((E, edges))`` matrix whose
  row-major order consumes the generator stream exactly as the scalar
  loop's per-message ``sample_failure`` calls would, so a shared seed
  yields *identical* retry patterns (equivalence-tested).

Both simulators agree exactly on returned node sets and retry counts,
and on energies to float round-off (the equivalence suite pins 1e-9
relative tolerance).  Protocols with no batch form (proof collection,
NAIVE-1, a ``priority`` forwarding order) run only on ``Simulator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import PlanError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger, Instrumentation
from repro.obs.spans import maybe_span
from repro.plans.execution import (
    BatchCollectionResult,
    batch_transmitted_counts,
    execute_plan_batch,
    sort_readings_desc,
    validate_readings_matrix,
)
from repro.plans.plan import Message, QueryPlan
from repro.query.accuracy import batch_accuracy
from repro.simulation.distribution import trigger_cost
from repro.simulation.runtime import CollectionPricing

_EMPTY_BOOL = np.zeros((0, 0), dtype=bool)


@dataclass
class BatchSimulationReport:
    """Measured outcome of one plan replayed over a whole trace.

    Per-epoch quantities are arrays of length ``E``; per-epoch message
    counts are value-independent and therefore plain ints.
    """

    returned_values: np.ndarray
    """``(E, R)`` returned values, each row sorted descending."""

    returned_nodes: np.ndarray
    """``(E, R)`` owning node ids, aligned with ``returned_values``."""

    energy_mj: np.ndarray
    """``(E,)`` measured energy per epoch (trigger + acquisition +
    collection + failure retries)."""

    num_messages: int
    """Messages per epoch (identical across epochs)."""

    num_values_sent: int
    """Values sent per epoch (identical across epochs)."""

    num_retries: np.ndarray
    """``(E,)`` failure retries per epoch."""

    failure_edges: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    """``(M,)`` edge ids of the per-epoch unicast messages, in message
    order (empty without a failure model)."""

    failure_matrix: np.ndarray = field(default_factory=lambda: _EMPTY_BOOL)
    """``(E, M)`` per-unicast failure outcomes, aligned with
    ``failure_edges`` — the batch analogue of the scalar report's
    ``edge_outcomes`` list."""

    detail: BatchCollectionResult | None = None
    """The underlying batch collection result, for inspection."""

    @property
    def num_epochs(self) -> int:
        return int(self.energy_mj.shape[0])

    def top_k_nodes(self, k: int) -> np.ndarray:
        """``(E, min(k, R))`` node ids of each epoch's answer."""
        return self.returned_nodes[:, :k]

    def top_k_node_sets(self, k: int) -> list[set[int]]:
        return [set(map(int, row)) for row in self.returned_nodes[:, :k]]

    def edge_outcomes(self, epoch: int) -> list[tuple[int, bool]]:
        """The scalar report's ``edge_outcomes`` list for one epoch."""
        if self.failure_matrix.size == 0 and self.failure_edges.size == 0:
            return []
        return [
            (int(edge), bool(failed))
            for edge, failed in zip(self.failure_edges, self.failure_matrix[epoch])
        ]

    def edge_outcome_counts(self) -> dict[int, tuple[int, int]]:
        """Aggregate ``{edge: (attempts, failures)}`` over the batch —
        the raw material for §4.4 failure statistics."""
        counts: dict[int, tuple[int, int]] = {}
        if self.failure_edges.size == 0:
            return counts
        epochs = self.failure_matrix.shape[0]
        per_edge_failures = self.failure_matrix.sum(axis=0)
        for column, edge in enumerate(self.failure_edges):
            attempts, failures = counts.get(int(edge), (0, 0))
            counts[int(edge)] = (
                attempts + epochs,
                failures + int(per_edge_failures[column]),
            )
        return counts


class BatchSimulator:
    """Vectorized counterpart of :class:`~repro.simulation.runtime.Simulator`.

    Same construction shape and semantics (everything after
    ``(topology, energy)`` keyword-only);
    the entry points take an ``(E, n)`` readings matrix (or a
    :class:`~repro.datagen.trace.Trace`) instead of a single epoch's
    vector.  Under a shared seed the failure draws match the scalar
    simulator's exactly (see
    :meth:`~repro.network.failures.LinkFailureModel.sample_failure_matrix`).

    The optional ``ledger`` is charged with the same per-node radio
    costs as the scalar simulator's (vectorized over epochs;
    equivalence-tested to 1e-9 rtol).  Not supported by
    :meth:`run_plan_sweep` and :meth:`run_bandwidth_sweep`, which never
    build a message log.
    """

    def __init__(
        self,
        topology: Topology,
        energy: EnergyModel,
        *,
        failures: LinkFailureModel | None = None,
        rng: np.random.Generator | None = None,
        instrumentation: Instrumentation | None = None,
        ledger: EnergyLedger | None = None,
    ) -> None:
        self.topology = topology
        self.energy = energy
        self.failures = failures
        self.rng = rng if rng is not None else np.random.default_rng()
        self.instrumentation = instrumentation
        self.ledger = ledger

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _as_matrix(readings_matrix) -> np.ndarray:
        values = getattr(readings_matrix, "values", readings_matrix)
        return np.asarray(values, dtype=np.float64)

    def _charge_batch(
        self,
        messages: list[Message],
        num_epochs: int,
        totals: tuple[float, int] | None = None,
    ) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray]:
        """Base per-epoch energy plus vectorized failure accounting.

        Returns ``(base_mj, values, retry_mj, edges, fail_matrix)``:
        the deterministic per-epoch collection cost, the per-epoch
        value count, the ``(E,)`` retry energies, and the unicast edge
        ids with their ``(E, M)`` failure outcomes.  ``totals``
        optionally supplies a precomputed ``(base_mj, values)`` pair —
        both depend only on the message list, so a plan's cached
        pricing holds them; the per-node ledger breakdown still needs
        the full scan, so the shortcut only applies without one.
        """
        base = 0.0
        values = 0
        ledger = self.ledger
        if ledger is None and totals is not None:
            base, values = totals
        else:
            if ledger is not None:
                node_energy = np.zeros(self.topology.n, dtype=np.float64)
                node_msgs = np.zeros(self.topology.n, dtype=np.int64)
                node_bytes = np.zeros(self.topology.n, dtype=np.int64)
            for message in messages:
                cost = message.cost(self.energy)
                base += cost
                values += message.num_values
                if ledger is not None:
                    node_energy[message.edge] += cost
                    node_msgs[message.edge] += 1
                    node_bytes[message.edge] += (
                        message.num_values * self.energy.value_bytes
                        + message.extra_bytes
                    )
        if self.failures is None:
            if ledger is not None:
                ledger.charge_epochs(
                    np.tile(node_energy, (num_epochs, 1)),
                    messages=node_msgs,
                    nbytes=node_bytes,
                )
            return (
                base,
                values,
                np.zeros(num_epochs, dtype=np.float64),
                np.zeros(0, dtype=np.int64),
                np.zeros((num_epochs, 0), dtype=bool),
            )
        unicast = [m for m in messages if m.kind == "unicast"]
        edges = np.array([m.edge for m in unicast], dtype=np.int64)
        fails = self.failures.sample_failure_matrix(edges, self.rng, num_epochs)
        retry_cost = np.array(
            [
                m.cost(self.energy) + self.failures.reroute_cost(m.edge)
                for m in unicast
            ],
            dtype=np.float64,
        )
        if ledger is not None:
            # mirror the scalar path: each retry charges its sending
            # node the message cost plus re-route penalty, +1 message,
            # and no bytes
            epoch_energy = np.tile(node_energy, (num_epochs, 1))
            epoch_msgs = np.tile(node_msgs, (num_epochs, 1))
            if edges.size:
                np.add.at(
                    epoch_energy.T, edges, (fails * retry_cost).T
                )
                np.add.at(
                    epoch_msgs.T, edges, fails.T.astype(np.int64)
                )
            ledger.charge_epochs(
                epoch_energy,
                messages=epoch_msgs,
                nbytes=node_bytes,
            )
        return base, values, fails @ retry_cost, edges, fails

    def _report(
        self,
        collect: Callable[[], BatchCollectionResult],
        extra_energy: float,
        label: str,
        totals: tuple[float, int] | None = None,
    ) -> BatchSimulationReport:
        """Run ``collect`` (the batch walk), charge and report it; the
        ``collect`` span times both."""
        obs = self.instrumentation
        with maybe_span(obs, "collect", label=label) as span:
            result = collect()
            num_epochs = result.num_epochs
            base, values, retry_mj, edges, fails = self._charge_batch(
                result.messages, num_epochs, totals
            )
        retries = (
            fails.sum(axis=1).astype(np.int64)
            if edges.size
            else np.zeros(num_epochs, dtype=np.int64)
        )
        energy = np.full(num_epochs, base + extra_energy, dtype=np.float64)
        energy += retry_mj
        report = BatchSimulationReport(
            returned_values=result.returned_values,
            returned_nodes=result.returned_nodes,
            energy_mj=energy,
            num_messages=len(result.messages),
            num_values_sent=values,
            num_retries=retries,
            failure_edges=edges,
            failure_matrix=fails,
            detail=result,
        )
        if obs is not None:
            obs.record_batch_collection(
                span,
                label,
                epochs=num_epochs,
                messages=len(result.messages) * num_epochs,
                values=values * num_epochs,
                retries=int(retries.sum()),
                energy_mj=float(energy.sum()),
            )
        return report

    def _acquisition(self, num_nodes: int) -> float:
        return self.energy.acquisition_mj * num_nodes

    # -- entry points ---------------------------------------------------
    def run_collection(
        self,
        plan: QueryPlan,
        readings_matrix,
        include_trigger: bool = True,
        label: str = "collection",
    ) -> BatchSimulationReport:
        """Replay an installed plan over every epoch of a trace."""
        values = self._as_matrix(readings_matrix)
        pricing = CollectionPricing.of(plan, self.energy)
        extra = pricing.trigger_mj if include_trigger else 0.0
        extra += pricing.acquisition_mj
        return self._report(
            lambda: execute_plan_batch(plan, values),
            extra,
            label,
            (pricing.energy_mj, pricing.values),
        )

    def run_naive_k(self, readings_matrix, k: int) -> BatchSimulationReport:
        """NAIVE-k over every epoch (exact top-k, full-tree trigger).

        NAIVE-k is exact by construction, so no tree recursion runs:
        the answer is the top-``k`` prefix of one row-wise ``(value,
        node)`` sort, and every node ``u`` sends ``min(k, |desc(u)|)``
        values, in post-order — the message log
        :func:`~repro.plans.execution.execute_plan_batch` builds for
        :meth:`QueryPlan.naive_k`, so failure draws and ledger charges
        come out as they would from that replay.
        """
        if k < 1:
            raise PlanError("k must be >= 1")
        topology = self.topology
        values = validate_readings_matrix(
            topology, self._as_matrix(readings_matrix)
        )

        def collect() -> BatchCollectionResult:
            top_values, top_nodes = sort_readings_desc(values)
            subtree = topology.subtree_size_array()
            messages = [
                Message(node, min(k, int(subtree[node])))
                for node in topology.post_order()
                if node != topology.root
            ]
            return BatchCollectionResult(
                returned_values=top_values[:, :k],
                returned_nodes=top_nodes[:, :k],
                messages=messages,
                transmitted={m.edge: m.num_values for m in messages},
            )

        extra = trigger_cost(QueryPlan.full(topology), self.energy)
        extra += self._acquisition(topology.n)
        return self._report(collect, extra, "naive-k")

    def run_plan_sweep(
        self, plans: list[QueryPlan], include_trigger: bool = True
    ) -> np.ndarray:
        """Measured per-execution energies for ``C`` different plans.

        The sweep analogue of calling ``run_collection`` once per plan:
        packs the plans' bandwidths into one ``(C, n)`` matrix and
        prices it with :meth:`run_bandwidth_sweep`, which refuses a
        failure model.
        """
        bandwidths = np.zeros((len(plans), self.topology.n), dtype=np.int64)
        for row, plan in enumerate(plans):
            if plan.topology is not self.topology:
                raise PlanError("plan sweep requires plans on this topology")
            for edge, b in plan.bandwidths.items():
                bandwidths[row, edge] = b
        return self.run_bandwidth_sweep(bandwidths, include_trigger)

    def run_bandwidth_sweep(
        self, bandwidths: np.ndarray, include_trigger: bool = True
    ) -> np.ndarray:
        """Measured per-execution energies of ``C`` bandwidth vectors.

        ``bandwidths`` is a ``(C, n)`` int matrix indexed by edge child
        id, one plan per row.  Because transmitted counts are
        value-independent, a plan's measured collection energy needs no
        readings at all — one
        :func:`~repro.plans.execution.batch_transmitted_counts`
        recursion over all rows yields every message size, and trigger
        plus acquisition costs vectorize over the active-node masks.
        Each row is priced on its own, so its energy does not depend on
        the other rows.  This is what makes per-epoch replanned
        baselines (ORACLE plans a fresh node set every epoch) cheap to
        evaluate.

        Failure injection is not supported here (each plan would need
        its own draw matrix, breaking the shared-draw discipline);
        attach the failure model to per-plan ``run_collection`` calls
        instead.
        """
        if self.failures is not None:
            raise PlanError(
                "plan sweeps do not support failure injection;"
                " use run_collection per plan instead"
            )
        bandwidths = np.atleast_2d(np.asarray(bandwidths, dtype=np.int64))
        num_plans = bandwidths.shape[0]
        if not num_plans:
            return np.zeros(0, dtype=np.float64)
        counts, active = batch_transmitted_counts(self.topology, bandwidths)
        per_message = self.energy.per_message_mj
        per_value = self.energy.per_value_mj
        sends = active.copy()
        sends[:, self.topology.root] = False
        energies = (
            sends.sum(axis=1) * per_message + counts.sum(axis=1) * per_value
        ).astype(np.float64)
        if include_trigger:
            parents = np.array(
                [self.topology.parent(e) for e in self.topology.edges],
                dtype=np.int64,
            )
            active_children = np.zeros(
                (num_plans, self.topology.n), dtype=np.int64
            )
            np.add.at(
                active_children,
                (np.arange(num_plans)[:, None], parents[None, :]),
                active[:, self.topology.edges].astype(np.int64),
            )
            broadcasters = ((active_children > 0) & active).sum(axis=1)
            energies += broadcasters * self.energy.broadcast_cost()
        energies += self._acquisition(1) * active.sum(axis=1)
        return energies

    def accuracies(
        self, report: BatchSimulationReport, readings_matrix, k: int
    ) -> np.ndarray:
        """Per-epoch paper accuracies of a batch report's answers."""
        values = self._as_matrix(readings_matrix)
        return batch_accuracy(report.top_k_nodes(k), values, k)
