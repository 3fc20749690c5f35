"""Tests for per-node energy telemetry (repro.obs.energy)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import EnergyLedger, Instrumentation
from repro.obs.energy import HISTORY_EPOCHS


class TestConstruction:
    def test_rejects_empty_network(self):
        with pytest.raises(ObservabilityError, match=">= 1 node"):
            EnergyLedger(0)

    def test_scalar_capacity_broadcasts(self):
        ledger = EnergyLedger(3, capacity_mj=10.0)
        np.testing.assert_array_equal(ledger.capacity_mj, [10.0, 10.0, 10.0])

    def test_per_node_capacity_kept(self):
        ledger = EnergyLedger(2, capacity_mj=[5.0, 8.0])
        np.testing.assert_array_equal(ledger.capacity_mj, [5.0, 8.0])

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="positive"):
            EnergyLedger(2, capacity_mj=[5.0, 0.0])


class TestCharging:
    def test_charge_accumulates_per_node(self):
        ledger = EnergyLedger(3)
        ledger.charge(1, 2.5, messages=1, nbytes=32)
        ledger.charge(1, 0.5, messages=1)
        ledger.charge(2, 1.0, messages=1, nbytes=8)
        np.testing.assert_allclose(ledger.energy_mj, [0.0, 3.0, 1.0])
        np.testing.assert_array_equal(ledger.messages, [0, 2, 1])
        np.testing.assert_array_equal(ledger.bytes, [0, 32, 8])
        assert ledger.total_mj == pytest.approx(4.0)

    def test_end_epoch_snapshots_deltas(self):
        ledger = EnergyLedger(2)
        ledger.charge(0, 1.0)
        assert ledger.end_epoch() == 0
        ledger.charge(0, 0.5)
        ledger.charge(1, 2.0)
        assert ledger.end_epoch() == 1
        assert ledger.num_epochs == 2
        np.testing.assert_allclose(ledger.epoch_energy[0], [1.0, 0.0])
        np.testing.assert_allclose(ledger.epoch_energy[1], [0.5, 2.0])
        np.testing.assert_allclose(
            ledger.cumulative_energy(), [[1.0, 0.0], [1.5, 2.0]]
        )

    def test_charge_epochs_block(self):
        ledger = EnergyLedger(2)
        ledger.charge_epochs(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            messages=np.array([2, 1]),
            nbytes=np.array([[8, 4], [2, 0]]),
        )
        assert ledger.num_epochs == 2
        np.testing.assert_allclose(ledger.energy_mj, [4.0, 6.0])
        # (n,)-shaped counts apply to every epoch; (E, n) blocks sum
        np.testing.assert_array_equal(ledger.messages, [4, 2])
        np.testing.assert_array_equal(ledger.bytes, [10, 4])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_charge_epoch_is_a_one_row_block_bitwise(self, data):
        """One-vector epochs equal ``(1, n)`` blocks and the per-message
        path, bit for bit: totals, window, pre-window spend, latch."""
        n = data.draw(st.integers(1, 6))
        energies = st.floats(0.0, 50.0, allow_subnormal=False)
        counts = st.lists(st.integers(0, 9), min_size=n, max_size=n)
        epochs = data.draw(st.lists(
            st.tuples(
                st.lists(energies, min_size=n, max_size=n), counts, counts
            ),
            min_size=1, max_size=12,
        ))
        capacity = data.draw(st.none() | st.floats(1.0, 200.0))
        window = data.draw(st.integers(1, 4))
        one, block, scalar = (
            EnergyLedger(n, capacity_mj=capacity) for __ in range(3)
        )
        for ledger in (one, block, scalar):  # fold evictions early
            ledger.epoch_energy = deque(maxlen=window)
        for energy, messages, nbytes in epochs:
            row = np.array(energy)
            one.charge_epoch(row, np.array(messages), np.array(nbytes))
            block.charge_epochs(
                row[None, :], messages=np.array(messages),
                nbytes=np.array(nbytes),
            )
            for node in range(n):
                scalar.charge(node, energy[node], messages[node], nbytes[node])
            scalar.end_epoch()

        def state(ledger):
            return (
                ledger.energy_mj.tobytes(), ledger.messages.tobytes(),
                ledger.bytes.tobytes(), ledger._before_window.tobytes(),
                [row.tobytes() for row in ledger.epoch_energy],
                ledger.num_epochs, ledger._lifetime_epoch,
            )

        assert state(one) == state(block) == state(scalar)

    def test_charge_epochs_rejects_bad_shapes(self):
        ledger = EnergyLedger(2)
        with pytest.raises(ObservabilityError, match=r"\(E, 2\)"):
            ledger.charge_epochs(np.zeros(4))
        with pytest.raises(ObservabilityError, match="messages shape"):
            ledger.charge_epochs(
                np.zeros((3, 2)), messages=np.zeros((2, 2))
            )


class TestDerivedViews:
    def burned(self) -> EnergyLedger:
        ledger = EnergyLedger(2, capacity_mj=10.0)
        for __ in range(3):
            ledger.charge(0, 2.0)
            ledger.charge(1, 1.0)
            ledger.end_epoch()
        return ledger

    def test_remaining_fraction_and_burn_down(self):
        ledger = self.burned()
        np.testing.assert_allclose(
            ledger.remaining_fraction(),
            [[0.8, 0.9], [0.6, 0.8], [0.4, 0.7]],
        )
        np.testing.assert_allclose(ledger.burn_down(), [0.8, 0.6, 0.4])

    def test_remaining_fraction_clips_at_zero(self):
        ledger = EnergyLedger(1, capacity_mj=1.0)
        ledger.charge(0, 5.0)
        ledger.end_epoch()
        np.testing.assert_allclose(ledger.remaining_fraction(), [[0.0]])

    def test_lifetime_epoch_none_while_alive(self):
        assert self.burned().lifetime_epoch() is None

    def test_lifetime_epoch_first_death(self):
        ledger = EnergyLedger(2, capacity_mj=4.0)
        for __ in range(3):
            ledger.charge(0, 2.0)
            ledger.charge(1, 1.0)
            ledger.end_epoch()
        assert ledger.lifetime_epoch() == 1  # node 0 hits 4.0 mJ there

    def test_projected_lifetime_from_average_rate(self):
        # node 0 burns 2 mJ/epoch of 10 mJ -> death at epoch 5
        assert self.burned().projected_lifetime() == pytest.approx(5.0)

    def test_projected_lifetime_none_without_spend_or_epochs(self):
        idle = EnergyLedger(2, capacity_mj=10.0)
        assert idle.projected_lifetime() is None  # no epochs yet
        idle.end_epoch()
        assert idle.projected_lifetime() is None  # zero burn everywhere

    def test_views_require_capacity(self):
        ledger = EnergyLedger(2)
        ledger.charge(0, 1.0)
        ledger.end_epoch()
        with pytest.raises(ObservabilityError, match="capacity"):
            ledger.remaining_fraction()
        with pytest.raises(ObservabilityError, match="capacity"):
            ledger.lifetime_epoch()
        assert ledger.projected_lifetime() is None

    def test_empty_ledger_views_are_empty(self):
        ledger = EnergyLedger(2, capacity_mj=10.0)
        assert ledger.cumulative_energy().shape == (0, 2)
        assert ledger.burn_down().shape == (0,)

    def test_hottest_orders_by_spend(self):
        ledger = EnergyLedger(4)
        ledger.charge(2, 9.0, messages=3, nbytes=24)
        ledger.charge(0, 5.0, messages=1, nbytes=8)
        ledger.charge(3, 1.0, messages=1, nbytes=4)
        top = ledger.hottest(2)
        assert [row["node"] for row in top] == [2, 0]
        assert top[0] == {
            "node": 2, "energy_mj": 9.0, "messages": 3, "bytes": 24,
        }
        assert ledger.hottest(0) == []


class TestPublish:
    def test_headline_gauges(self):
        obs = Instrumentation()
        ledger = EnergyLedger(2, capacity_mj=10.0)
        ledger.charge(0, 2.0)
        ledger.charge(1, 1.0)
        ledger.end_epoch()
        ledger.publish(obs)
        gauges = obs.metrics.gauges
        assert gauges["energy.ledger.total_mj"].value == pytest.approx(3.0)
        assert gauges["energy.ledger.epochs"].value == 1
        assert gauges["energy.ledger.hottest_node"].value == 0
        assert gauges["energy.ledger.hottest_mj"].value == pytest.approx(2.0)
        assert gauges[
            "energy.ledger.min_remaining_fraction"
        ].value == pytest.approx(0.8)
        assert gauges[
            "energy.ledger.projected_lifetime_epochs"
        ].value == pytest.approx(5.0)

    def test_publish_without_capacity_skips_burn_gauges(self):
        obs = Instrumentation()
        ledger = EnergyLedger(1)
        ledger.charge(0, 1.0)
        ledger.end_epoch()
        ledger.publish(obs)
        assert "energy.ledger.total_mj" in obs.metrics.gauges
        assert "energy.ledger.min_remaining_fraction" not in obs.metrics.gauges


class TestSerialization:
    def test_round_trip(self):
        ledger = EnergyLedger(2, capacity_mj=[5.0, 8.0])
        ledger.charge(0, 1.0, messages=2, nbytes=16)
        ledger.end_epoch()
        ledger.charge(1, 2.0, messages=1, nbytes=4)
        ledger.end_epoch()
        restored = EnergyLedger.from_dict(ledger.to_dict())
        assert restored.to_dict() == ledger.to_dict()
        np.testing.assert_allclose(restored.burn_down(), ledger.burn_down())
        # restored ledgers keep accumulating from where they left off
        restored.charge(0, 0.5)
        assert restored.end_epoch() == 2
        np.testing.assert_allclose(restored.epoch_energy[2], [0.5, 0.0])

    def test_malformed_dump_raises(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            EnergyLedger.from_dict({"num_nodes": 2})


class TestBoundedHistory:
    """The per-epoch window is bounded; totals and lifetime are not."""

    EPOCHS = 5000

    def long_run(self, capacity_mj=None) -> EnergyLedger:
        ledger = EnergyLedger(2, capacity_mj=capacity_mj)
        for epoch in range(self.EPOCHS):
            ledger.charge(0, 1.0, messages=1, nbytes=8)
            ledger.charge(1, 0.25 * (epoch % 4), messages=1)
            ledger.end_epoch()
        return ledger

    def test_window_is_capped_and_counts_every_epoch(self):
        ledger = self.long_run()
        assert ledger.num_epochs == self.EPOCHS
        assert len(ledger.epoch_energy) == HISTORY_EPOCHS
        np.testing.assert_allclose(ledger.epoch_energy[-1], [1.0, 0.75])
        # running totals still cover every epoch
        assert ledger.energy_mj[0] == self.EPOCHS
        np.testing.assert_array_equal(
            ledger.messages, [self.EPOCHS, self.EPOCHS]
        )
        assert ledger.bytes[0] == 8 * self.EPOCHS

    def test_cumulative_window_starts_from_the_dropped_spend(self):
        ledger = self.long_run()
        cumulative = ledger.cumulative_energy()
        assert cumulative.shape == (HISTORY_EPOCHS, 2)
        first_kept = self.EPOCHS - HISTORY_EPOCHS
        assert cumulative[0, 0] == first_kept + 1
        np.testing.assert_array_equal(cumulative[-1], ledger.energy_mj)

    def test_burn_down_covers_the_window(self):
        capacity = 2.0 * self.EPOCHS
        ledger = self.long_run(capacity_mj=capacity)
        burn = ledger.burn_down()
        assert burn.shape == (HISTORY_EPOCHS,)
        assert burn[-1] == pytest.approx(0.5)
        first_kept = self.EPOCHS - HISTORY_EPOCHS
        assert burn[0] == pytest.approx(1 - (first_kept + 1) / capacity)

    def test_lifetime_latched_before_the_window(self):
        # node 0 reaches 100 mJ at epoch 99, long before the window
        ledger = self.long_run(capacity_mj=100.0)
        assert ledger.lifetime_epoch() == 99
        assert EnergyLedger.from_dict(ledger.to_dict()).lifetime_epoch() == 99

    def test_projected_lifetime_uses_every_epoch(self):
        ledger = self.long_run(capacity_mj=4.0 * self.EPOCHS)
        # node 0 burns 1 mJ/epoch averaged over all epochs
        assert ledger.projected_lifetime() == pytest.approx(4.0 * self.EPOCHS)

    def test_dump_stays_bounded_and_round_trips(self):
        ledger = self.long_run(capacity_mj=100.0)
        dump = ledger.to_dict()
        assert len(dump["epoch_energy"]) == HISTORY_EPOCHS
        assert dump["epochs"] == self.EPOCHS
        restored = EnergyLedger.from_dict(dump)
        assert restored.to_dict() == dump
        np.testing.assert_array_equal(
            restored.cumulative_energy(), ledger.cumulative_energy()
        )
        restored.charge(0, 1.0)
        assert restored.end_epoch() == self.EPOCHS

    def test_dump_without_offset_reads_as_zero(self):
        dump = {
            "num_nodes": 2,
            "capacity_mj": 3.0,
            "energy_mj": [4.0, 1.0],
            "messages": [0, 0],
            "bytes": [0, 0],
            "epoch_energy": [[2.0, 0.5], [2.0, 0.5]],
        }
        restored = EnergyLedger.from_dict(dump)
        assert restored.num_epochs == 2
        np.testing.assert_allclose(
            restored.cumulative_energy(), [[2.0, 0.5], [4.0, 1.0]]
        )
        # the latch is found again from the replayed window
        assert restored.lifetime_epoch() == 1

    def test_long_unbounded_dump_folds_its_oldest_rows(self):
        rows = [[1.0, 0.0]] * (HISTORY_EPOCHS + 10)
        dump = {
            "num_nodes": 2,
            "energy_mj": [float(len(rows)), 0.0],
            "messages": [0, 0],
            "bytes": [0, 0],
            "epoch_energy": rows,
        }
        restored = EnergyLedger.from_dict(dump)
        assert restored.num_epochs == len(rows)
        assert len(restored.epoch_energy) == HISTORY_EPOCHS
        assert restored.cumulative_energy()[0, 0] == 11.0
