"""The paper's Figure 3 and Figure 8 orderings, over seeds.

A sample-based plan's quality is a statistical property: the strict
Fig-3 ordering breaks at many single (seed, budget) points, while its
averages hold with a wide margin.  So every check here is taken over
several seeds (and, for Fig 3, over the whole budget ladder), at the
figure's own full size, and asserts the shape EXPERIMENTS.md reports:

- Fig 3: LP+LF >= LP-LF >= Greedy on accuracy at matched energy (the
  three planners share one budget ladder and spend alike), each step
  by at least two standard errors of its per-seed gap, and the
  NAIVE-k cost ratios: dearer than the best LP+LF plan, nearly as dear
  at ``j = 1`` as at ``j = k``, and many times ORACLE at ``j = 1``;
- Fig 8: PROSPECTOR-Exact's phase split -- phase 1 rises and phase 2
  falls with the phase-1 budget, the total is U-shaped, and the
  optimum recovers at least the paper's ~50% of the NAIVE-k to
  ORACLE-PROOF gap.

Both figures solve their LPs as budget ladders, so this is the gate
any change to how a ladder is solved or rounded must pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fig3_comparison, fig8_exact

FIG3_SEEDS = tuple(range(1, 13))
FIG8_SEEDS = tuple(range(1, 7))
APPROXIMATE = ("lp-lf", "lp-no-lf", "greedy")


@pytest.fixture(scope="module")
def fig3_runs() -> list[list[dict]]:
    return [fig3_comparison.run(seed=seed, processes=1) for seed in FIG3_SEEDS]


@pytest.fixture(scope="module")
def fig8_runs() -> list[list[dict]]:
    return [fig8_exact.run(seed=seed, processes=1) for seed in FIG8_SEEDS]


def _rows(rows: list[dict], name: str) -> list[dict]:
    return [r for r in rows if r["algorithm"] == name]


def _mean_over(runs, name: str, column: str) -> float:
    """``column`` averaged over every seed and budget of ``name``."""
    return float(np.mean([
        r[column] for rows in runs for r in _rows(rows, name)
    ]))


class TestFig3:
    def test_accuracy_ordering(self, fig3_runs):
        """Each step of LP+LF >= LP-LF >= Greedy holds on the mean, and
        its per-seed paired gap clears two standard errors, so the
        ordering is a property of the planners, not of these seeds."""
        accuracy = {
            name: np.array([
                np.mean([r["accuracy"] for r in _rows(rows, name)])
                for rows in fig3_runs
            ])
            for name in APPROXIMATE
        }
        for better, worse in zip(APPROXIMATE, APPROXIMATE[1:]):
            gap = accuracy[better] - accuracy[worse]
            stderr = gap.std(ddof=1) / np.sqrt(gap.size)
            assert gap.mean() >= 2 * stderr, (better, worse, gap)

    def test_energy_is_matched(self, fig3_runs):
        """The ordering compares like with like: on the shared ladder
        the three planners' mean energies agree within 5%."""
        energy = [
            _mean_over(fig3_runs, name, "energy_mj") for name in APPROXIMATE
        ]
        assert max(energy) <= 1.05 * min(energy), energy

    def test_naive_k_cost_ratio(self, fig3_runs):
        over_lp, flat, over_oracle = [], [], []
        for rows in fig3_runs:
            naive = _rows(rows, "naive-k")
            oracle = _rows(rows, "oracle")
            assert naive[-1]["accuracy"] == 1.0
            top_lp = max(r["energy_mj"] for r in _rows(rows, "lp-lf"))
            over_lp.append(naive[-1]["energy_mj"] / top_lp)
            flat.append(naive[0]["energy_mj"] / naive[-1]["energy_mj"])
            over_oracle.append(naive[0]["energy_mj"] / oracle[0]["energy_mj"])
        # EXPERIMENTS.md: ~1.3x the approximates at the top, 63.8 of
        # 87 mJ already at j = 1, 23x ORACLE there
        assert np.mean(over_lp) > 1.2, over_lp
        assert np.mean(flat) > 0.6, flat
        assert np.mean(over_oracle) > 10.0, over_oracle


class TestFig8:
    @staticmethod
    def _column(runs, column: str) -> np.ndarray:
        """``column`` per trial, averaged over seeds."""
        return np.mean(
            [[r[column] for r in rows] for rows in runs], axis=0
        )

    def test_phase_split(self, fig8_runs):
        phase1 = self._column(fig8_runs, "phase1_cost_mj")
        phase2 = self._column(fig8_runs, "phase2_cost_mj")
        assert np.all(np.diff(phase1) >= -1e-9), phase1
        assert phase2[0] > phase2[1] > phase2[-1], phase2

    def test_total_is_u_shaped(self, fig8_runs):
        total = self._column(fig8_runs, "total_cost_mj")
        best = int(np.argmin(total))
        assert 0 < best < len(total) - 1, total

    def test_optimum_recovers_the_gap(self, fig8_runs):
        recovered = []
        for rows in fig8_runs:
            naive, oracle = rows[0]["naive_k_mj"], rows[0]["oracle_proof_mj"]
            assert oracle < naive
            best = min(r["total_cost_mj"] for r in rows)
            recovered.append((naive - best) / (naive - oracle))
        assert np.mean(recovered) >= 0.5, recovered
