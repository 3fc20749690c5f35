"""The array-built ORACLE / NAIVE-k sweep of Figure 3.

``_exact_sweep_batch`` prices ORACLE from one row-wise sort and one
``(k·E, n)`` bandwidth matrix, and NAIVE-k from a direct build.  Its
rows must equal, bitwise, the rows built plan by plan: per-epoch
``OraclePlanner.plan_for_readings`` plans priced by ``run_plan_sweep``,
and the NAIVE-k tree recursion accounted as an installed plan.  The
epoch-by-epoch loops of ``_scalar_oracle.py`` agree to float round-off.
"""

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.experiments.fig3_comparison import _exact_sweep_batch
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from repro.planners.oracle import OraclePlanner
from repro.query.accuracy import batch_accuracy
from repro.simulation.batch import BatchSimulator
from tests.experiments import _scalar_oracle as oracle
from tests.simulation._collection_oracle import naive_k_by_recursion

MICA2 = EnergyModel.mica2()


class _Trace:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def __iter__(self):
        return iter(self.values)


def _rows_plan_by_plan(topology, energy, eval_trace, k):
    """The exact sweep built one ``QueryPlan`` at a time."""
    simulator = BatchSimulator(topology, energy)
    oracle = OraclePlanner()
    values = eval_trace.values
    rows = []
    for j in range(1, k + 1):
        plans = [
            oracle.plan_for_readings(topology, readings, j)
            for readings in values
        ]
        rows.append(
            {
                "algorithm": "oracle",
                "accuracy": j / k,
                "energy_mj": float(np.mean(simulator.run_plan_sweep(plans))),
                "budget_mj": "",
            }
        )
        report = naive_k_by_recursion(simulator, values, j)
        naive = batch_accuracy(report.top_k_nodes(j), values, j) * j / k
        rows.append(
            {
                "algorithm": "naive-k",
                "accuracy": float(np.mean(naive)),
                "energy_mj": float(np.mean(report.energy_mj)),
                "budget_mj": "",
            }
        )
    return rows


def _gaussian_case(seed, n=60, epochs=20):
    rng = np.random.default_rng(seed)
    topology = random_topology(n, rng=rng)
    field = random_gaussian_field(n, rng).scaled_variance(9.0)
    return topology, field.trace(epochs, rng)


def _tie_case(seed, n=12, epochs=15):
    """Integer readings from {0, 1, 2}: most top-j cuts fall in a tie."""
    rng = np.random.default_rng(seed)
    topology = random_topology(n, rng=rng, radio_range=60.0)
    return topology, _Trace(rng.integers(0, 3, size=(epochs, n)))


CASES = [
    pytest.param(_gaussian_case, 2006, 10, id="gaussian-2006"),
    pytest.param(_gaussian_case, 7, 10, id="gaussian-7"),
    pytest.param(_gaussian_case, 123, 4, id="gaussian-123-k4"),
    pytest.param(_tie_case, 1, 5, id="ties"),
    pytest.param(_tie_case, 2, 9, id="ties-k9"),
    pytest.param(_tie_case, 3, 16, id="ties-k-over-n"),
]


@pytest.mark.parametrize("make, seed, k", CASES)
def test_rows_equal_the_plan_by_plan_sweep(make, seed, k):
    topology, trace = make(seed)
    assert _exact_sweep_batch(
        topology, MICA2, trace, k, False, None
    ) == _rows_plan_by_plan(topology, MICA2, trace, k)


@pytest.mark.parametrize("make, seed, k", CASES)
def test_rows_match_the_scalar_loops(make, seed, k):
    topology, trace = make(seed)
    batch = _exact_sweep_batch(topology, MICA2, trace, k, True, None)
    scalar = oracle.exact_sweep(topology, MICA2, trace, k, True)
    assert [r["algorithm"] for r in batch] == [
        r["algorithm"] for r in scalar
    ]
    for got, want in zip(batch, scalar):
        assert got["accuracy"] == pytest.approx(want["accuracy"], rel=1e-9)
        assert got["energy_mj"] == pytest.approx(
            want["energy_mj"], rel=1e-9
        )
