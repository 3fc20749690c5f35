"""The end-to-end top-k query engine.

Typical lifecycle::

    engine = TopKEngine(topology, EnergyModel.mica2(), k=10,
                        planner=LPLFPlanner(),
                        config=EngineConfig(budget_mj=500.0))
    for reading in warmup_trace:
        engine.feed_sample(reading)     # bootstrap the sample window
    for reading in live_trace:
        outcome = engine.step(reading)  # sample or query, per policy

``step`` applies the paper's operational policies: an adaptive
exploration rate decides when to pay for a full sample (§3, §4.4
"Re-sampling"), and re-optimized plans are only disseminated when they
beat the installed plan by a margin (§4.4 "Plan Re-calculation"),
since installation costs on the order of a collection phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SamplingError
from repro.network.energy import EnergyModel
from repro.network.failures import LinkFailureModel
from repro.network.topology import Topology
from repro.obs import EnergyLedger, Instrumentation, record_event
from repro.obs.spans import maybe_span
from repro.plans.execution import expected_hits
from repro.plans.plan import QueryPlan
from repro.planners.base import Planner, PlanningContext
from repro.query.accuracy import accuracy
from repro.query.result import (
    AuditResult,
    BatchQueryResult,
    EpochOutcome,
    QueryResult,
)
from repro.sampling.collector import AdaptiveSampler
from repro.sampling.window import SampleWindow
from repro.simulation.runtime import Simulator


@dataclass
class EngineConfig:
    """Operational knobs of the engine."""

    budget_mj: float = 500.0
    """Per-query energy budget handed to the planner."""

    window_capacity: int = 25
    """Sample window size (the paper finds 25-50 samples suffice)."""

    replan_every: int = 10
    """Re-optimize at the base station every this many queries."""

    replan_improvement: float = 0.10
    """Disseminate the new plan only if its expected hits beat the
    installed plan's by at least this fraction (§4.4)."""

    track_truth: bool = True
    """Compute accuracy against ground truth (simulation-only luxury)."""


class TopKEngine:
    """Plans, executes, and maintains approximate top-k queries."""

    def __init__(
        self,
        topology: Topology,
        energy: EnergyModel,
        k: int,
        planner: Planner,
        *,
        config: EngineConfig | None = None,
        failures: LinkFailureModel | None = None,
        sampler: AdaptiveSampler | None = None,
        rng: np.random.Generator | None = None,
        instrumentation: Instrumentation | None = None,
        ledger: EnergyLedger | None = None,
    ) -> None:
        self.topology = topology
        self.energy = energy
        self.k = k
        self.planner = planner
        self.config = config or EngineConfig()
        self.failures = failures
        self.instrumentation = instrumentation
        self.ledger = ledger
        rng = rng or np.random.default_rng()
        self.sampler = sampler or AdaptiveSampler(rng=rng)
        self.window = SampleWindow(self.config.window_capacity)
        self.simulator = Simulator(
            topology,
            energy,
            failures=failures,
            rng=rng,
            instrumentation=instrumentation,
            ledger=ledger,
        )
        self.plan: QueryPlan | None = None
        self.total_energy_mj = 0.0
        self.epoch = 0
        self._queries_since_replan = 0
        self._batch_simulator = None

    def _charge(self, category: str, energy_mj: float) -> None:
        """Accumulate energy and mirror it into the per-category counters."""
        self.total_energy_mj += energy_mj
        if self.instrumentation is not None:
            self.instrumentation.record_energy(category, energy_mj)

    # -- topology maintenance (paper §4.4) -----------------------------
    def handle_permanent_failure(
        self, dead_node: int, radio_range: float | None = None
    ) -> dict[int, int]:
        """Exclude a permanently failed node and re-optimize.

        The spanning tree is adjusted (paper §4.4), the sample window's
        columns are migrated to the surviving node ids, and the
        installed plan is dropped so the next query re-plans on the new
        topology.  Returns the old→new node id mapping.
        """
        from repro.network.maintenance import remap_readings, remove_node

        new_topology, id_map = remove_node(
            self.topology, dead_node, radio_range=radio_range
        )
        old_rows = self.window.rows()  # migrate retained samples
        self.topology = new_topology
        self.window = SampleWindow(self.config.window_capacity)
        for row in old_rows:
            self.window.add(remap_readings(row, id_map, new_topology.n))
        self.simulator = Simulator(
            new_topology,
            self.energy,
            failures=self.failures,
            rng=self.simulator.rng,
            instrumentation=self.instrumentation,
            ledger=self.ledger,
        )
        self.plan = None
        return id_map

    # -- sample maintenance ----------------------------------------------
    def feed_sample(self, readings, charge_energy: bool = False) -> None:
        """Record one full-network sample (bootstrap or exploration)."""
        if charge_energy:
            report = self.simulator.collect_full_sample(readings)
            self._charge("sample", report.energy_mj)
        if self.instrumentation is not None:
            self.instrumentation.record_sample("feed")
        self.window.add(readings)
        self.plan = None  # force a re-plan with the fresh window

    def _context(self) -> PlanningContext:
        if self.window.is_empty:
            raise SamplingError(
                "no samples collected yet; call feed_sample() first"
            )
        return PlanningContext(
            topology=self.topology,
            energy=self.energy,
            samples=self.window.matrix(self.k),
            k=self.k,
            budget=self.config.budget_mj,
            failures=self.failures,
            instrumentation=self.instrumentation,
        )

    # -- planning -----------------------------------------------------------
    def ensure_plan(self) -> QueryPlan:
        """Return the installed plan, planning (and paying install) if
        none is installed yet."""
        if self.plan is None:
            self.plan = self.planner.plan(self._context())
            install_mj = self.simulator.install_cost(self.plan)
            self._charge("install", install_mj)
            self._queries_since_replan = 0
            record_event(
                self.instrumentation,
                "plan_installed",
                reason="initial",
                install_mj=install_mj,
                edges_used=len(self.plan.used_edges),
            )
        return self.plan

    def maybe_replan(self) -> bool:
        """Re-optimize; disseminate only on sufficient improvement.

        Returns True when a new plan was installed.  The decision is one
        ``replan.decide`` span carrying both plans' expected hits and the
        threshold, plus ``install_mj`` and ``edges_used`` when the
        candidate is installed.  A declined candidate is counted
        (``engine.replans_skipped``) and does *not* reset the replan
        clock, so the next query re-attempts instead of waiting a full
        ``replan_every`` cycle.
        """
        if self.plan is None:
            self.ensure_plan()
            return True
        with maybe_span(self.instrumentation, "replan.decide") as span:
            context = self._context()
            candidate = self.planner.plan(context)
            ones = context.samples.ones_list()
            current_hits = expected_hits(self.plan, ones)
            candidate_hits = expected_hits(candidate, ones)
            threshold = current_hits * (1.0 + self.config.replan_improvement)
            span.annotate(
                installed=candidate_hits > threshold,
                current_hits=current_hits,
                candidate_hits=candidate_hits,
                threshold=threshold,
            )
            if candidate_hits > threshold:
                self.plan = candidate
                install_mj = self.simulator.install_cost(candidate)
                self._charge("install", install_mj)
                self._queries_since_replan = 0
                span.annotate(
                    install_mj=install_mj,
                    edges_used=len(candidate.used_edges),
                )
                return True
            if self.instrumentation is not None:
                self.instrumentation.counter("engine.replans_skipped").inc()
            return False

    # -- execution -------------------------------------------------------------
    def query(self, readings) -> QueryResult:
        """Execute the installed plan on this epoch's readings."""
        plan = self.ensure_plan()
        report = self.simulator.run_collection(plan, readings)
        self._charge("query", report.energy_mj)
        self.observe_failures(report)
        answer = report.returned[: self.k]
        score = (
            accuracy((n for __, n in answer), readings, self.k)
            if self.config.track_truth
            else float("nan")
        )
        return QueryResult(returned=answer, energy_mj=report.energy_mj,
                           accuracy=score)

    def _batch(self):
        """The cached vectorized simulator, rebuilt on topology change.

        Only used on the no-failures/no-ledger fast path, so it shares
        the scalar simulator's rng without ever consuming from it.
        """
        from repro.simulation.batch import BatchSimulator

        if (
            self._batch_simulator is None
            or self._batch_simulator.topology is not self.topology
        ):
            self._batch_simulator = BatchSimulator(
                self.topology,
                self.energy,
                rng=self.simulator.rng,
                instrumentation=self.instrumentation,
            )
        return self._batch_simulator

    def query_batch(self, readings_matrix) -> BatchQueryResult:
        """Execute the installed plan on many epochs' readings at once.

        Row ``i`` of the result is *bitwise identical* to what
        :meth:`query` would return for row ``i`` of the matrix — same
        nodes, values, per-epoch energies, accuracies, and the same
        running ``total_energy_mj`` (energy is accumulated per row in
        row order, not summed vectorized).  The speedup comes from one
        :class:`~repro.simulation.batch.BatchSimulator` tree recursion
        replacing ``B`` interpreted plan walks.

        With a link-failure model or an energy ledger attached, the
        vectorized path would perturb the rng stream and per-node
        round-off, so the batch degrades to the scalar loop — still
        one call, identical semantics.
        """
        matrix = np.asarray(
            getattr(readings_matrix, "values", readings_matrix),
            dtype=np.float64,
        )
        if matrix.ndim != 2:
            raise SamplingError(
                "query_batch needs an (epochs, nodes) readings matrix"
            )
        if self.failures is not None or self.ledger is not None:
            results = [self.query(row) for row in matrix]
            return BatchQueryResult(
                nodes=tuple(
                    tuple(int(n) for __, n in r.returned) for r in results
                ),
                values=tuple(
                    tuple(float(v) for v, __ in r.returned) for r in results
                ),
                energies=tuple(float(r.energy_mj) for r in results),
                accuracies=tuple(float(r.accuracy) for r in results),
            )
        plan = self.ensure_plan()
        if matrix.shape[0] == 0:
            return BatchQueryResult(
                nodes=(), values=(), energies=(), accuracies=()
            )
        simulator = self._batch()
        report = simulator.run_collection(plan, matrix)
        # charge per row, in row order: bitwise-equal running totals
        # with the scalar loop (a vectorized sum would round differently)
        for energy in report.energy_mj:
            self._charge("query", float(energy))
        if self.config.track_truth:
            scores = simulator.accuracies(report, matrix, self.k)
        else:
            scores = np.full(report.num_epochs, float("nan"))
        return BatchQueryResult(
            nodes=tuple(
                tuple(int(n) for n in row)
                for row in report.returned_nodes[:, : self.k]
            ),
            values=tuple(
                tuple(float(v) for v in row)
                for row in report.returned_values[:, : self.k]
            ),
            energies=tuple(float(e) for e in report.energy_mj),
            accuracies=tuple(float(s) for s in scores),
        )

    def observe_failures(self, report) -> None:
        """Fold one report's per-edge outcomes into the failure model
        (paper §4.4: "collect statistics on the frequency with which
        each edge fails").  No-op without an attached model."""
        if self.failures is None:
            return
        with maybe_span(
            self.instrumentation, "filter.update",
            outcomes=len(report.edge_outcomes),
        ):
            for edge, failed in report.edge_outcomes:
                self.failures.record_failure(edge, failed)
                if failed and self.instrumentation is not None:
                    self.instrumentation.event(
                        "failure_observed",
                        edge=edge,
                        probability=self.failures.failure_probability.get(edge),
                    )

    def audit(self, readings, budget_factor: float = 1.25) -> AuditResult:
        """Estimate the installed plan's accuracy with a proof run.

        Paper §4.4 "Re-sampling": "This confidence can be measured by
        periodically running PROSPECTOR-Proof ... which can tell us the
        accuracy of our approximate solutions."  The proof run's
        certified top-k is ground truth for scoring the installed
        plan's answer; the resulting accuracy estimate feeds the
        adaptive sampler, and the audit's energy is charged.

        Returns an :class:`~repro.query.result.AuditResult`; the old
        ``(estimated_accuracy, audit_energy_mj)`` tuple unpacking still
        works via its ``__iter__``.
        """
        from repro.planners.exact import ExactTopK
        from repro.planners.proof import ProofPlanner

        plan = self.ensure_plan()
        answer = self.query(readings)

        proof_planner = ProofPlanner()
        context = self._context()
        probe = PlanningContext(
            topology=self.topology,
            energy=self.energy,
            samples=context.samples,
            k=self.k,
            budget=float("inf"),
            failures=self.failures,
        )
        proof_context = PlanningContext(
            topology=self.topology,
            energy=self.energy,
            samples=context.samples,
            k=self.k,
            budget=proof_planner.minimum_cost(probe) * budget_factor,
            failures=self.failures,
        )
        exact = ExactTopK(proof_planner)
        outcome = exact.run(proof_context, readings)
        audit_energy = sum(
            m.cost(self.energy)
            for m in outcome.phase1_messages + outcome.phase2_messages
        )
        self._charge("audit", audit_energy)

        truth = outcome.answer_nodes()
        estimated = len(answer.returned_nodes & truth) / self.k
        self.sampler.record_accuracy(estimated)
        result = AuditResult(
            estimated_accuracy=estimated,
            audit_energy_mj=audit_energy,
            truth_nodes=frozenset(truth),
            answer_nodes=frozenset(answer.returned_nodes),
        )
        record_event(
            self.instrumentation,
            "audit_run",
            estimated_accuracy=estimated,
            audit_energy_mj=audit_energy,
            budget_factor=budget_factor,
        )
        return result

    def step(self, readings) -> EpochOutcome:
        """One epoch of the explore/exploit loop."""
        self.epoch += 1
        if self.instrumentation is not None:
            self.instrumentation.counter("engine.epochs").inc()
        with maybe_span(
            self.instrumentation, "epoch", index=self.epoch
        ) as span:
            decision = self.sampler.decide()
            if decision.explore or self.window.is_empty:
                span.annotate(action="sample", rate=decision.rate)
                report = self.simulator.collect_full_sample(readings)
                self._charge("sample", report.energy_mj)
                self.window.add(readings)
                self.plan = None
                if self.instrumentation is not None:
                    self.instrumentation.record_sample("explore")
                return EpochOutcome(
                    epoch=self.epoch,
                    action="sample",
                    energy_mj=report.energy_mj,
                    notes={"rate": decision.rate},
                )

            span.annotate(action="query")
            self._queries_since_replan += 1
            replanned = False
            if (
                self.plan is not None
                and self._queries_since_replan >= self.config.replan_every
            ):
                # the clock only resets when a plan is actually installed
                # (inside maybe_replan); a declined candidate leaves it
                # running so the next query re-attempts immediately
                # instead of silently waiting another replan_every cycle
                replanned = self.maybe_replan()

            result = self.query(readings)
            if self.instrumentation is not None:
                self.instrumentation.counter("engine.queries").inc()
            if self.config.track_truth and not np.isnan(result.accuracy):
                self.sampler.record_accuracy(result.accuracy)
            return EpochOutcome(
                epoch=self.epoch,
                action="query",
                result=result,
                energy_mj=result.energy_mj,
                notes={"replanned": replanned},
            )
