"""fig3-sweep: the paper's research loop, one Figure 3 sweep per op.

One op is one ``fig3_comparison.run`` sweep (n=60, k=10, 7 budgets,
``processes=1``) with a fresh ``ExperimentRunner``, so the runner's
result cache never hits.  Per-seed cost varies widely, so ops cycle
through ``SEED_LIST`` sweep seeds derived from the run seed; the first
``SEED_LIST`` ops cover each once and the accuracy, energy and
ordering checks use exactly those.  The timed window runs on one CPU
(:func:`common.one_cpu`), beside the host-speed probes that scale its
timings.  Set-up is one warm-up sweep on ``WARMUP_SEED``, the same in
every run: per-seed cost varies too much for a seed-derived warm-up to
give comparable ``setup_s`` figures.

Correctness: a sweep repeated on the same seed must give the same
rows; the first ``COMPOSED_CHECKS`` seeds must give exactly the rows
of the composed sweep below; and over the accounted sweeps the paper's
ordering LP+LF >= LP-LF >= Greedy must hold for accuracy averaged over
the budget ladder.

The composed sweep rebuilds ``fig3_comparison.run`` from the public
functions it uses, so the traced run can time each layer from outside:
input generation (``datagen``), ``sample_matrix`` (``sampling``), the
runner's ``map`` (``experiments.runner``), the LP planners'
``plan_for_budgets`` split by the ``compile``/``solve``/``round`` spans
an :class:`~repro.obs.Instrumentation` records, ``GreedyPlanner.plan``,
the batched replays (``simulation.replay``) and the ORACLE/NAIVE-k
sweep (``simulation.exact``).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from common import (
    BenchmarkError,
    closed_loop,
    e2e_result,
    ledger_result,
    median_setup,
    one_cpu,
    peak_rss_mb,
)
from repro.datagen.gaussian import random_gaussian_field
from repro.experiments import fig3_comparison
from repro.experiments.common import budget_sweep, evaluate_plan
from repro.experiments.runner import ExperimentRunner
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.obs import Instrumentation
from repro.planners.base import PlanningContext
from repro.planners.greedy import GreedyPlanner
from repro.planners.lp_lf import LPLFPlanner
from repro.planners.lp_no_lf import LPNoLFPlanner
from repro.planners.oracle import OraclePlanner
from repro.query.accuracy import batch_accuracy
from repro.simulation.batch import BatchSimulator

N = 60
K = 10
BUDGET_STEPS = 7
NUM_SAMPLES = 25
EVAL_EPOCHS = 20
VARIANCE_SCALE = 9.0
"""``fig3_comparison.run``'s defaults, which the composed sweep repeats."""
SEED_LIST = 40
WARMUP_SEED = 0
SETUP_REPEATS = 5
COMPOSED_CHECKS = 3
TRACE_SHARE = 0.75
"""Share of ``--seconds`` the traced run's paired sweeps may take."""
APPROXIMATE = ("lp-lf", "lp-no-lf", "greedy")
"""The budgeted algorithms, in the paper's accuracy order."""


def sweep_seeds(seed: int) -> list[int]:
    return [
        int(s) for s in np.random.SeedSequence([seed, N, K]).generate_state(
            SEED_LIST
        )
    ]


def sweep(seed: int) -> list[dict]:
    """One op: a full Figure 3 sweep, nothing cached across sweeps."""
    return fig3_comparison.run(
        seed=seed,
        n=N,
        k=K,
        budget_steps=BUDGET_STEPS,
        processes=1,
        runner=ExperimentRunner(processes=1, seed=seed),
    )


def _budgeted(rows):
    return [r for r in rows if r["algorithm"] in APPROXIMATE]


def _ordering_holds(accounted) -> bool:
    """LP+LF >= LP-LF >= Greedy on budget-averaged accuracy."""
    means = {
        name: statistics.fmean(
            r["accuracy"]
            for rows in accounted
            for r in rows
            if r["algorithm"] == name
        )
        for name in APPROXIMATE
    }
    return means["lp-lf"] >= means["lp-no-lf"] >= means["greedy"]


def run(seed: int, seconds: float):
    seeds = sweep_seeds(seed)
    __, __, setup_s = median_setup(
        lambda: (sweep(WARMUP_SEED), lambda: None), SETUP_REPEATS
    )
    first_rows: dict[int, list[dict]] = {}
    failed = 0

    def op(index: int) -> float:
        nonlocal failed
        sweep_seed = seeds[index % SEED_LIST]
        started = time.perf_counter()
        rows = sweep(sweep_seed)
        elapsed = time.perf_counter() - started
        if sweep_seed in first_rows:
            failed += rows != first_rows[sweep_seed]
        else:
            first_rows[sweep_seed] = rows
        return elapsed

    with one_cpu():
        window = closed_loop(op, seconds, SEED_LIST)
    rss = peak_rss_mb()

    for sweep_seed in seeds[:COMPOSED_CHECKS]:
        rows = composed_sweep(sweep_seed)[0]
        failed += rows != first_rows[sweep_seed]
    accounted = [_budgeted(first_rows[s]) for s in seeds]
    ordered = _ordering_holds(accounted)
    failed += not ordered
    note = (
        f"fig3-sweep: {window.ops} sweeps over {SEED_LIST} seeds;"
        f" ordering LP+LF >= LP-LF >= Greedy"
        f" {'holds' if ordered else 'VIOLATED'}; {failed} failures"
    )
    return e2e_result(
        window,
        setup_s,
        rss,
        accuracy=statistics.fmean(
            r["accuracy"] for rows in accounted for r in rows
        ),
        energy_mj=statistics.fmean(
            r["energy_mj"] for rows in accounted for r in rows
        ),
        failed=failed,
        note=note,
    )


# -- the composed sweep --------------------------------------------------------


def _trial(params: dict, rng: np.random.Generator):
    """One (planner, budget) point, as ``fig3_comparison`` evaluates it,
    with its layers timed: ``(row, {layer: seconds})``."""
    spent = {}
    if "plan" in params:
        plan = params["plan"]
        name = params["name"]
    else:
        started = time.perf_counter()
        context = PlanningContext(
            topology=params["topology"],
            energy=params["energy"],
            samples=params["train"].sample_matrix(params["k"]),
            k=params["k"],
            budget=params["budget"],
        )
        planned = time.perf_counter()
        planner = GreedyPlanner()
        plan = planner.plan(context)
        name = planner.name
        spent["sampling"] = planned - started
        spent["planners.greedy"] = time.perf_counter() - planned
    started = time.perf_counter()
    evaluation = evaluate_plan(
        name,
        plan,
        params["topology"],
        params["energy"],
        params["eval_trace"],
        params["k"],
        rng=rng,
    )
    spent["simulation.replay"] = time.perf_counter() - started
    return evaluation.row(budget_mj=round(params["budget"], 2)), spent


_SPAN_LAYERS = {
    "compile": "lp.compile",
    "batch.solve": "lp.solve",
    "solve": "lp.solve",
    "round": "planners.round",
}
"""Top-level spans under one ``plan_for_budgets`` call, by layer."""


def _lp_plans(planner, context, budgets, spent, calls):
    """``plan_for_budgets`` with its spans folded into layer times."""
    obs = Instrumentation()
    context = PlanningContext(
        topology=context.topology,
        energy=context.energy,
        samples=context.samples,
        k=context.k,
        budget=context.budget,
        instrumentation=obs,
    )
    with obs.span("plan_for_budgets") as root:
        plans = planner.plan_for_budgets(context, budgets)
    for child in root.children:
        layer = _SPAN_LAYERS[child.name]
        spent[layer] += child.duration_s
        calls[layer] += len(budgets) if child.name == "batch.solve" else 1
    spent["planners.plan"] += root.self_s()
    calls["planners.plan"] += 1
    calls["lp.solves"] += int(obs.metrics.counter("lp.solves").value)
    calls["lp.warm_starts"] += int(obs.metrics.counter("lp.warm_starts").value)
    return plans


def composed_sweep(seed: int):
    """``fig3_comparison.run`` rebuilt from its public parts.

    Returns ``(rows, spent, calls)``: the same rows, seconds per layer
    and call counts per layer.
    """
    spent = defaultdict(float)
    calls = defaultdict(int)
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    energy = EnergyModel.mica2()
    topology = random_topology(N, rng=rng)
    field = random_gaussian_field(N, rng).scaled_variance(VARIANCE_SCALE)
    train = field.trace(NUM_SAMPLES, rng)
    eval_trace = field.trace(EVAL_EPOCHS, rng)
    budgets = budget_sweep(energy.message_cost(1) * 4, BUDGET_STEPS)
    spent["datagen"] += time.perf_counter() - started

    started = time.perf_counter()
    samples = train.sample_matrix(K)
    spent["sampling"] += time.perf_counter() - started

    shared = {"topology": topology, "energy": energy,
              "eval_trace": eval_trace, "k": K}
    trials = [
        {**shared, "train": train, "budget": budget} for budget in budgets
    ]
    context = PlanningContext(
        topology=topology, energy=energy, samples=samples, k=K,
        budget=budgets[0],
    )
    for planner in (LPNoLFPlanner(), LPLFPlanner()):
        plans = _lp_plans(planner, context, budgets, spent, calls)
        trials.extend(
            {**shared, "name": planner.name, "plan": plan, "budget": budget}
            for budget, plan in zip(budgets, plans)
        )

    started = time.perf_counter()
    results = ExperimentRunner(processes=1, seed=seed).map(
        _trial, trials, seed=seed
    )
    mapped = time.perf_counter() - started
    rows = []
    for row, trial_spent in results:
        rows.append(row)
        for layer, seconds in trial_spent.items():
            spent[layer] += seconds
            mapped -= seconds
    spent["experiments.runner"] += mapped

    started = time.perf_counter()
    rows.extend(_exact_rows(topology, energy, eval_trace))
    spent["simulation.exact"] += time.perf_counter() - started
    return rows, spent, calls


def _exact_rows(topology, energy, eval_trace) -> list[dict]:
    """The ORACLE and NAIVE-k rows: accuracy ``j / k`` at measured cost."""
    simulator = BatchSimulator(topology, energy)
    oracle = OraclePlanner()
    values = eval_trace.values
    rows = []
    for j in range(1, K + 1):
        plans = [
            oracle.plan_for_readings(topology, readings, j)
            for readings in values
        ]
        rows.append(
            {
                "algorithm": "oracle",
                "accuracy": j / K,
                "energy_mj": float(np.mean(simulator.run_plan_sweep(plans))),
                "budget_mj": "",
            }
        )
        report = simulator.run_naive_k(values, j)
        naive = batch_accuracy(report.top_k_nodes(j), values, j) * j / K
        rows.append(
            {
                "algorithm": "naive-k",
                "accuracy": float(np.mean(naive)),
                "energy_mj": float(np.mean(report.energy_mj)),
                "budget_mj": "",
            }
        )
    return rows


def trace(seed: int, seconds: float):
    """The per-layer ledger from paired untraced and composed sweeps.

    Each seed runs once untraced (``fig3_comparison.run``) and once
    composed, alternating which goes first; the composed rows must
    equal the untraced ones.
    """
    seeds = sweep_seeds(seed)
    sweep(WARMUP_SEED)
    spent = defaultdict(float)
    calls = defaultdict(int)
    seconds_of = {"untraced": [], "composed": []}

    def op(index: int) -> float:
        sweep_seed = seeds[index % SEED_LIST]
        passes = [("untraced", sweep), ("composed", composed_sweep)]
        if index % 2:
            passes.reverse()
        out = {}
        for name, call in passes:
            started = time.perf_counter()
            out[name] = call(sweep_seed)
            seconds_of[name].append(time.perf_counter() - started)
        rows, sweep_spent, sweep_calls = out["composed"]
        if rows != out["untraced"]:
            raise BenchmarkError(
                f"fig3-sweep composed rows differ from fig3_comparison.run"
                f" on sweep seed {sweep_seed}"
            )
        for layer, value in sweep_spent.items():
            spent[layer] += value
        for layer, value in sweep_calls.items():
            calls[layer] += value
        return seconds_of["untraced"][-1]

    window = closed_loop(op, seconds * TRACE_SHARE, 2)
    ops = window.ops
    layer_ms = {layer: value * 1e3 / ops for layer, value in spent.items()}

    def per_call(layer: str) -> float:
        return spent[layer] * 1e3 / max(calls[layer], 1)

    lp_plans = calls["planners.round"]
    extra = {
        "planners.plan.ms_per_call": (
            (spent["planners.plan"] + spent["lp.compile"] + spent["lp.solve"]
             + spent["planners.round"]) * 1e3 / max(calls["planners.plan"], 1)
        ),
        "planners.round.ms_per_call": per_call("planners.round"),
        "lp.solve.ms_per_call": per_call("lp.solve"),
        "lp.compile.ms_per_call": per_call("lp.compile"),
        "planners.plans_per_op": lp_plans / ops,
        "lp.warm_start_ratio": (
            calls["lp.warm_starts"] / max(calls["lp.solves"], 1)
        ),
    }
    note = (
        f"fig3-sweep trace: {ops} seeds, each swept untraced and composed;"
        f" {calls['lp.solves']} LP solves, {lp_plans} LP plans rounded"
    )
    return ledger_result(
        layer_ms,
        op_ms=statistics.fmean(seconds_of["composed"]) * 1e3,
        untraced_ms=statistics.fmean(seconds_of["untraced"]) * 1e3,
        traced_over_untraced=(
            statistics.fmean(seconds_of["composed"])
            / statistics.fmean(seconds_of["untraced"])
        ),
        extra=extra,
        attempted=ops,
        note=note,
    )
