"""Reference oracle for the scalar collection path.

The original, schedule-free implementation of one collection phase: a
tuple walk over every node that sorts every buffer, followed by a
per-message charge of the resulting log (energy, ledger charges,
per-depth breakdown, failure draws) and a fresh trigger/acquisition
computation.  :func:`~repro.plans.execution.execute_plan` and
:meth:`~repro.simulation.runtime.Simulator.run_collection` walk a
compiled schedule and charge one precomputed pricing instead; the
differential tests require both to agree bitwise with this module.

:func:`naive_k_by_recursion` is the batch-side reference for NAIVE-k:
the tree recursion over :meth:`QueryPlan.naive_k`, accounted as an
installed plan, which ``BatchSimulator.run_naive_k``'s direct build
must reproduce.
"""

from __future__ import annotations


from repro.errors import PlanError
from repro.network.topology import validate_readings
from repro.obs.spans import maybe_span
from repro.plans.execution import CollectionResult, execute_plan_batch
from repro.plans.plan import Message, QueryPlan, Reading, tag_readings
from repro.simulation.distribution import trigger_cost
from repro.simulation.runtime import CollectionPricing, SimulationReport


def oracle_execute_plan(
    plan: QueryPlan, readings, priority=None
) -> CollectionResult:
    """Walk the tree in post-order, sorting every node's buffer."""
    topology = plan.topology
    values = validate_readings(topology, readings)
    tagged = tag_readings(values)
    sort_key = priority if priority is not None else lambda reading: reading
    active = plan.visited_nodes

    buffers: dict[int, list[Reading]] = {}
    messages: list[Message] = []
    transmitted: dict[int, int] = {}

    for node in topology.post_order():
        if node not in active:
            continue
        local: list[Reading] = [tagged[node]]
        for child in topology.children(node):
            local.extend(buffers.pop(child, []))
        local.sort(key=sort_key, reverse=True)
        if node == topology.root:
            local.sort(reverse=True)  # the answer is reported by value
            return CollectionResult(
                returned=local, messages=messages, transmitted=transmitted
            )
        outgoing = local[: plan.bandwidths[node]]
        buffers[node] = outgoing
        messages.append(Message(node, len(outgoing)))
        transmitted[node] = len(outgoing)
    raise PlanError("post-order walk did not end at the root")


def oracle_charge(simulator, messages: list[Message]):
    """Energy, value count, retries, per-edge outcomes, and (when
    instrumented) the per-edge-depth breakdown of a message log,
    charged message by message."""
    energy = simulator.energy
    failures = simulator.failures
    ledger = simulator.ledger
    total = 0.0
    values = 0
    retries = 0
    outcomes: list[tuple[int, bool]] = []
    by_depth: dict[int, dict] | None = (
        {} if simulator.instrumentation is not None else None
    )
    for message in messages:
        cost = message.cost(energy)
        total += cost
        values += message.num_values
        if by_depth is not None or ledger is not None:
            nbytes = message.num_values * energy.value_bytes + message.extra_bytes
            if ledger is not None:
                ledger.charge(message.edge, cost, messages=1, nbytes=nbytes)
            if by_depth is not None:
                depth = simulator.topology.depth(message.edge)
                bucket = by_depth.setdefault(
                    depth, {"messages": 0, "bytes": 0, "energy_mj": 0.0}
                )
                bucket["messages"] += 1
                bucket["bytes"] += nbytes
                bucket["energy_mj"] += cost
        if failures is None or message.kind != "unicast":
            continue
        failed = failures.sample_failure(message.edge, simulator.rng)
        outcomes.append((message.edge, failed))
        if failed:
            retries += 1
            retry_cost = message.cost(energy) + failures.reroute_cost(message.edge)
            total += retry_cost
            if ledger is not None:
                ledger.charge(message.edge, retry_cost, messages=1)
            if by_depth is not None:
                bucket = by_depth[simulator.topology.depth(message.edge)]
                bucket["messages"] += 1
                bucket["energy_mj"] += retry_cost
    return total, values, retries, outcomes, by_depth


def oracle_run_collection(
    simulator,
    plan: QueryPlan,
    readings,
    include_trigger: bool = True,
    priority=None,
    label: str = "collection",
) -> SimulationReport:
    """One triggered collection of ``plan``, charged to ``simulator``'s
    energy model, failure model, rng, ledger and instrumentation."""
    result = oracle_execute_plan(plan, readings, priority=priority)
    extra = trigger_cost(plan, simulator.energy) if include_trigger else 0.0
    extra += simulator.energy.acquisition_mj * len(plan.visited_nodes)
    obs = simulator.instrumentation
    with maybe_span(obs, "collect", label=label) as span:
        energy, values, retries, outcomes, by_depth = oracle_charge(
            simulator, result.messages
        )
    if simulator.ledger is not None:
        simulator.ledger.end_epoch()
    if obs is not None:
        obs.record_collection(
            span,
            label,
            messages=len(result.messages),
            values=values,
            retries=retries,
            energy_mj=energy + extra,
            depth_adds=obs.bind_depths(by_depth),
        )
    return SimulationReport(
        returned=result.returned,
        energy_mj=energy + extra,
        num_messages=len(result.messages),
        num_values_sent=values,
        num_retries=retries,
        detail=result,
        edge_outcomes=outcomes,
    )


def naive_k_by_recursion(simulator, trace, k: int):
    """NAIVE-k over every epoch of ``trace`` as a replay on a
    :class:`~repro.simulation.batch.BatchSimulator`: the tree recursion
    over ``QueryPlan.naive_k``, trimmed to the top ``k`` and accounted
    like any installed plan (trigger and acquisition included)."""
    plan = QueryPlan.naive_k(simulator.topology, k)
    result = execute_plan_batch(plan, trace)
    result.returned_values = result.returned_values[:, :k]
    result.returned_nodes = result.returned_nodes[:, :k]
    pricing = CollectionPricing.of(plan, simulator.energy)
    return simulator._report(
        lambda: result,
        pricing.trigger_mj + pricing.acquisition_mj,
        "naive-k",
        (pricing.energy_mj, pricing.values),
    )
