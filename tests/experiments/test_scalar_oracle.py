"""Whole experiments against their epoch-by-epoch compositions.

Each figure runs its replays on the batch simulator.  On a small
instance its rows must equal the scalar loops of
``tests/experiments/_scalar_oracle.py``: the same algorithms in the same
order, the same accuracies, and energies to 1e-9 relative.
"""

import numpy as np
import pytest

from repro.datagen.gaussian import random_gaussian_field
from repro.datagen.intel import IntelLabSurrogate, intel_lab_network
from repro.experiments import fig3_comparison, fig8_exact, fig9_intel
from repro.network.builder import random_topology
from repro.network.energy import EnergyModel
from tests.experiments import _scalar_oracle as oracle

SMALL_FIG3 = dict(
    n=20, k=4, num_samples=10, eval_epochs=6, budget_steps=3,
    include_naive_one=True,
)


@pytest.mark.parametrize("seed", [0, 1, 2006])
def test_fig3_rows_equal_the_scalar_composition(seed):
    got = fig3_comparison.run(seed=seed, **SMALL_FIG3)
    want = oracle.fig3_rows(seed=seed, **SMALL_FIG3)
    assert [r["algorithm"] for r in got] == [r["algorithm"] for r in want]
    assert [r["budget_mj"] for r in got] == [r["budget_mj"] for r in want]
    assert [r["accuracy"] for r in got] == [r["accuracy"] for r in want]
    for row, reference in zip(got, want):
        assert row["energy_mj"] == pytest.approx(
            reference["energy_mj"], rel=1e-9
        )
    # the instance exercises every planner and exact baseline
    assert {r["algorithm"] for r in got} == {
        "greedy", "lp-no-lf", "lp-lf", "oracle", "naive-k", "naive-1",
    }


@pytest.mark.parametrize("seed", [0, 3])
def test_fig8_naive_k_line_equals_per_epoch_naive_k(seed):
    n, k, num_samples, eval_epochs = 20, 4, 8, 6
    rows = fig8_exact.run(
        seed=seed, n=n, k=k, num_samples=num_samples,
        eval_epochs=eval_epochs, budget_factors=(1.0, 1.3),
    )
    # fig8_exact.run's world, drawn from the same stream
    rng = np.random.default_rng(seed)
    topology = random_topology(n, rng=rng)
    field = random_gaussian_field(n, rng).scaled_variance(1.0)
    field.trace(num_samples, rng)
    eval_trace = field.trace(eval_epochs, rng)
    __, energies = oracle.naive_k(
        topology, EnergyModel.mica2(), eval_trace, k
    )
    for row in rows:
        assert row["naive_k_mj"] == pytest.approx(
            float(np.mean(energies)), rel=1e-9
        )


def test_fig9_naive_k_row_equals_per_epoch_naive_k():
    seed, k, training_epochs, eval_epochs = 3, 4, 20, 6
    rows = fig9_intel.run(
        seed=seed, k=k, training_epochs=training_epochs,
        eval_epochs=eval_epochs, budget_steps=1, include_lp_lf=False,
    )
    # fig9_intel.run's world, drawn from the same stream
    rng = np.random.default_rng(seed)
    topology = intel_lab_network(rng)
    trace = IntelLabSurrogate().generate(
        topology, training_epochs + eval_epochs, rng
    )
    __, eval_trace = trace.split(training_epochs)
    accuracies, energies = oracle.naive_k(
        topology, EnergyModel.mica2(), eval_trace, k
    )
    naive = rows[-1]
    assert naive["algorithm"] == "naive-k"
    assert naive["accuracy"] == float(np.mean(accuracies))
    assert naive["energy_mj"] == pytest.approx(
        float(np.mean(energies)), rel=1e-9
    )
