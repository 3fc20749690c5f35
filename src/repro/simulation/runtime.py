"""The simulator: execute plans, charge energy, inject failures.

:class:`Simulator` wraps the pure execution functions from
:mod:`repro.plans` with energy accounting.  When a
:class:`~repro.network.failures.LinkFailureModel` is attached, each
unicast may transiently fail; the reliable protocol then routes around
the edge, costing the message again plus the model's re-route penalty
(paper §4.4).

An installed plan's message log is value-independent, so its pricing
is too: :class:`CollectionPricing` holds it once per plan schedule and
energy model, and a reliable collection charges it as one precomputed
ledger epoch (:meth:`~repro.obs.EnergyLedger.charge_epoch`) and one
set of bound per-depth counter adds.  Only a failure model, whose
retries are drawn per message, still prices a collection message by
message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger, Instrumentation
from repro.obs.spans import NULL_SPAN, maybe_span
from repro.plans.execution import CollectionResult, execute_plan
from repro.plans.naive import naive_k_collect, naive_one_collect
from repro.plans.plan import Message, QueryPlan, Reading
from repro.plans.proof_execution import ProofResult, execute_proof_plan
from repro.simulation.distribution import initial_distribution_cost, trigger_cost


@dataclass(frozen=True)
class CollectionPricing:
    """A plan schedule's energy accounting under one energy model.

    Computed by :meth:`of` with the per-message loop of
    :meth:`Simulator._charge` (no failures), so every figure is
    bitwise what that loop yields: ``energy_mj`` sums the message costs
    in message order, and ``by_depth`` fills its buckets in that order
    too.  Cached in the schedule's ``pricing`` slot, so it is computed
    once per plan and model and dropped with the plan.
    """

    energy_mj: float
    """Collection radio energy of one phase (no trigger, no retries)."""
    values: int
    """Values sent per phase."""
    node_energy: np.ndarray
    """``(n,)`` radio energy per sending node (one ledger epoch)."""
    node_messages: np.ndarray
    """``(n,)`` messages per sending node."""
    node_bytes: np.ndarray
    """``(n,)`` payload bytes per sending node."""
    by_depth: dict
    """Per-edge-depth ``messages``/``bytes``/``energy_mj``, as
    :meth:`~repro.obs.Instrumentation.bind_depths` takes it."""
    trigger_mj: float
    """:func:`~repro.simulation.distribution.trigger_cost` of the plan."""
    acquisition_mj: float
    """Measurement energy of the plan's visited nodes (§4.4)."""
    depth_adds: dict = field(default_factory=dict, compare=False, repr=False)
    """The ``by_depth`` counter adds, bound once per
    :class:`~repro.obs.Instrumentation` (see :meth:`bound_depths`)."""

    def bound_depths(self, instrumentation: Instrumentation) -> tuple:
        """``instrumentation.bind_depths(self.by_depth)``, bound once."""
        adds = self.depth_adds.get(instrumentation)
        if adds is None:
            adds = self.depth_adds[instrumentation] = (
                instrumentation.bind_depths(self.by_depth)
            )
        return adds

    @classmethod
    def of(cls, plan: QueryPlan, energy: EnergyModel) -> "CollectionPricing":
        """The pricing of ``plan``'s schedule, cached on the schedule."""
        schedule = plan.schedule
        pricing = schedule.pricing.get(energy)
        if pricing is not None:
            return pricing
        topology = plan.topology
        total = 0.0
        values = 0
        node_energy = np.zeros(topology.n, dtype=np.float64)
        node_messages = np.zeros(topology.n, dtype=np.int64)
        node_bytes = np.zeros(topology.n, dtype=np.int64)
        by_depth: dict[int, dict] = {}
        for message in schedule.messages:
            cost = message.cost(energy)
            total += cost
            values += message.num_values
            nbytes = message.num_values * energy.value_bytes + message.extra_bytes
            node_energy[message.edge] += cost
            node_messages[message.edge] += 1
            node_bytes[message.edge] += nbytes
            bucket = by_depth.setdefault(
                topology.depth(message.edge),
                {"messages": 0, "bytes": 0, "energy_mj": 0.0},
            )
            bucket["messages"] += 1
            bucket["bytes"] += nbytes
            bucket["energy_mj"] += cost
        for shared in (node_energy, node_messages, node_bytes):
            shared.flags.writeable = False  # every later query reads them
        pricing = schedule.pricing[energy] = cls(
            energy_mj=total,
            values=values,
            node_energy=node_energy,
            node_messages=node_messages,
            node_bytes=node_bytes,
            by_depth=by_depth,
            trigger_mj=trigger_cost(plan, energy),
            acquisition_mj=energy.acquisition_mj * schedule.num_visited,
        )
        return pricing


@dataclass
class SimulationReport:
    """Measured outcome of one simulated collection phase."""

    returned: list[Reading]
    energy_mj: float
    num_messages: int
    num_values_sent: int
    num_retries: int = 0
    proven_count: int = 0
    detail: object = None
    """The underlying CollectionResult / ProofResult, for inspection."""

    edge_outcomes: list[tuple[int, bool]] = field(default_factory=list)
    """Per unicast: (edge, failed) — the raw material for the §4.4
    failure statistics (see LinkFailureModel.record_failure)."""

    def top_k_nodes(self, k: int) -> set[int]:
        return {node for __, node in self.returned[:k]}


class Simulator:
    """Charges an :class:`~repro.network.energy.EnergyModel` for the
    messages produced by plan executions over a topology.

    Everything after ``(topology, energy)`` is keyword-only.

    Parameters
    ----------
    failures:
        Optional transient-failure model; when present each unicast is
        retried on failure, costing the message again plus the re-route
        penalty.
    rng:
        Randomness source for failure draws (ignored without failures).
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; when set, every
        collection phase records its ``label``, ``messages``,
        ``values``, ``retries`` and ``energy_mj`` as span attributes,
        plus the ``sim.*`` counters, with messages/bytes/mJ broken down
        by edge depth.  A :meth:`run_collection` under an open span (a
        served request, an engine epoch) annotates that span; any other
        collection is its own ``collect`` span.
    ledger:
        Optional :class:`~repro.obs.EnergyLedger`; when set, every
        message's radio cost (including failure retries) is attributed
        to its sending node, and each collection phase closes one
        ledger epoch.  Trigger/acquisition extras are phase-level and
        stay out of the ledger (see the ledger's module docstring).

    The simulator builds :meth:`QueryPlan.full` once for its topology
    and reuses it for every :meth:`collect_full_sample` and
    :meth:`run_naive_k` trigger, so those share one compiled schedule.
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
        self._full: QueryPlan | None = None

    def _full_plan(self) -> QueryPlan:
        """:meth:`QueryPlan.full` of this simulator's topology, built once."""
        plan = self._full
        if plan is None or plan.topology is not self.topology:
            plan = self._full = QueryPlan.full(self.topology)
        return plan

    # -- message accounting ---------------------------------------------------
    def _charge(
        self, messages: list[Message]
    ) -> tuple[float, int, int, list[tuple[int, bool]], dict | None]:
        """Energy, value count, retries, per-edge outcomes, and (when
        instrumented) the per-edge-depth breakdown of a message log."""
        total = 0.0
        values = 0
        retries = 0
        outcomes: list[tuple[int, bool]] = []
        by_depth: dict[int, dict] | None = (
            {} if self.instrumentation is not None else None
        )
        ledger = self.ledger
        for message in messages:
            cost = message.cost(self.energy)
            total += cost
            values += message.num_values
            if by_depth is not None or ledger is not None:
                nbytes = (
                    message.num_values * self.energy.value_bytes
                    + message.extra_bytes
                )
                if ledger is not None:
                    ledger.charge(
                        message.edge, cost, messages=1, nbytes=nbytes
                    )
                if by_depth is not None:
                    depth = self.topology.depth(message.edge)
                    bucket = by_depth.setdefault(
                        depth, {"messages": 0, "bytes": 0, "energy_mj": 0.0}
                    )
                    bucket["messages"] += 1
                    bucket["bytes"] += nbytes
                    bucket["energy_mj"] += cost
            if self.failures is None or message.kind != "unicast":
                continue
            failed = self.failures.sample_failure(message.edge, self.rng)
            outcomes.append((message.edge, failed))
            if failed:
                retries += 1
                retry_cost = (
                    message.cost(self.energy)
                    + self.failures.reroute_cost(message.edge)
                )
                total += retry_cost
                if ledger is not None:
                    ledger.charge(message.edge, retry_cost, messages=1)
                if by_depth is not None:
                    bucket = by_depth[self.topology.depth(message.edge)]
                    bucket["messages"] += 1
                    bucket["energy_mj"] += retry_cost
        return total, values, retries, outcomes, by_depth

    def _report(
        self,
        collect: Callable[[], tuple[CollectionResult | ProofResult, float]],
        label: str,
        pricing: CollectionPricing | None = None,
    ) -> SimulationReport:
        """Run ``collect`` — the walk over the tree, returning its result
        and the trigger/acquisition energy on top of its messages —
        then charge and report it.

        With ``pricing`` and no failure model, the message log is
        charged from the precomputed pricing: one
        :meth:`~repro.obs.EnergyLedger.charge_epoch` closes the ledger
        epoch, and the per-depth counter adds are bound once per
        pricing.  Otherwise it is charged message by message, so
        failure draws keep their order.

        A collection with ``pricing`` that runs while a span is open (a
        served request, an engine epoch) records its figures as
        attributes of that span; any other collection is its own
        ``collect`` span, which times the walk and the charge.
        """
        obs = self.instrumentation
        span = None if obs is None or pricing is None else obs.spans.current
        own = (
            maybe_span(obs, "collect", label=label)
            if span is None else NULL_SPAN
        )
        with own:
            result, extra_energy = collect()
            if pricing is not None and self.failures is None:
                energy, values, retries = pricing.energy_mj, pricing.values, 0
                outcomes: list[tuple[int, bool]] = []
                if self.ledger is not None:
                    self.ledger.charge_epoch(
                        pricing.node_energy,
                        pricing.node_messages,
                        pricing.node_bytes,
                    )
                if obs is not None:
                    depth_adds = pricing.bound_depths(obs)
            else:
                energy, values, retries, outcomes, by_depth = self._charge(
                    result.messages
                )
                if self.ledger is not None:
                    self.ledger.end_epoch()
                if obs is not None:
                    depth_adds = obs.bind_depths(by_depth)
            energy += extra_energy
            messages = len(result.messages)
        if obs is not None:
            obs.record_collection(
                own if span is None else span,
                label,
                messages=messages,
                values=values,
                retries=retries,
                energy_mj=energy,
                depth_adds=depth_adds,
            )
        return SimulationReport(
            returned=result.returned,
            energy_mj=energy,
            num_messages=messages,
            num_values_sent=values,
            num_retries=retries,
            proven_count=getattr(result, "proven_count", 0),
            detail=result,
            edge_outcomes=outcomes,
        )

    # -- phases ---------------------------------------------------------------
    def _acquisition(self, num_nodes: int) -> float:
        """Measurement energy for the nodes that sampled (§4.4)."""
        return self.energy.acquisition_mj * num_nodes

    def run_collection(
        self,
        plan: QueryPlan,
        readings,
        include_trigger: bool = True,
        priority=None,
        label: str = "collection",
    ) -> SimulationReport:
        """One triggered execution of an installed approximate plan.

        ``priority`` overrides the forwarding order (used by subset
        queries that are not up-closed, see :mod:`repro.queries`);
        ``label`` tags the phase's ``collect`` span and counters.

        Only the walk over the plan's compiled schedule depends on the
        readings.  The energy, ledger charges, per-depth breakdown and
        trigger/acquisition extras come from the plan's cached
        :class:`CollectionPricing`; under a failure model the message
        log is still charged message by message, retries interleaved.
        """
        pricing = CollectionPricing.of(plan, self.energy)
        extra = pricing.trigger_mj if include_trigger else 0.0
        extra += pricing.acquisition_mj
        return self._report(
            lambda: (execute_plan(plan, readings, priority=priority), extra),
            label,
            pricing,
        )

    def run_proof_collection(
        self, plan: QueryPlan, readings, include_trigger: bool = True
    ) -> SimulationReport:
        """One triggered execution of a proof-carrying plan."""
        extra = trigger_cost(plan, self.energy) if include_trigger else 0.0
        extra += self._acquisition(self.topology.n)  # every node measures
        return self._report(
            lambda: (execute_proof_plan(plan, readings), extra), "proof"
        )

    def run_naive_k(self, readings, k: int) -> SimulationReport:
        """The NAIVE-k exact algorithm (needs no installed plan; the
        query is pushed down, charged as a trigger of the full tree)."""
        extra = CollectionPricing.of(self._full_plan(), self.energy).trigger_mj
        extra += self._acquisition(self.topology.n)
        return self._report(
            lambda: (naive_k_collect(self.topology, readings, k), extra),
            "naive-k",
        )

    def run_naive_one(self, readings, k: int) -> SimulationReport:
        """The NAIVE-1 pipelined exact algorithm."""

        def collect() -> tuple[CollectionResult, float]:
            result = naive_one_collect(self.topology, readings, k)
            # only nodes that were actually asked take a measurement
            asked = {m.edge for m in result.messages} | {self.topology.root}
            return result, self._acquisition(len(asked))

        return self._report(collect, "naive-1")

    def install_cost(self, plan: QueryPlan) -> float:
        """Energy of the initial distribution phase for ``plan``."""
        return initial_distribution_cost(plan, self.energy)

    def collect_full_sample(self, readings) -> SimulationReport:
        """Gather every node's value (the exploration step of §3),
        executed as a full-bandwidth collection."""
        return self.run_collection(
            self._full_plan(), readings, label="full-sample"
        )
