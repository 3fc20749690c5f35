"""Unit tests for the energy model."""

import re
from pathlib import Path

import pytest

from repro.network.energy import EnergyModel


class TestEnergyModel:
    def test_per_byte_derivation(self):
        model = EnergyModel(sending_mw=60.0, receiving_mw=30.0, byte_rate=3000.0)
        assert model.per_byte_mj == pytest.approx(0.03)

    def test_per_value(self):
        model = EnergyModel(
            sending_mw=60.0, receiving_mw=30.0, byte_rate=3000.0, value_bytes=4
        )
        assert model.per_value_mj == pytest.approx(0.12)

    def test_message_cost_structure(self, energy):
        empty = energy.message_cost(0)
        assert empty == pytest.approx(energy.per_message_mj)
        one = energy.message_cost(1)
        assert one == pytest.approx(
            energy.per_message_mj + energy.per_value_mj
        )
        # linear in the payload
        assert energy.message_cost(5) - energy.message_cost(4) == pytest.approx(
            energy.per_value_mj
        )

    def test_message_cost_extra_bytes(self, energy):
        base = energy.message_cost(2)
        assert energy.message_cost(2, extra_bytes=10) == pytest.approx(
            base + 10 * energy.per_byte_mj
        )

    def test_message_cost_rejects_negative(self, energy):
        with pytest.raises(ValueError):
            energy.message_cost(-1)

    def test_broadcast_cheaper_than_unicast(self, energy):
        assert energy.broadcast_cost() < energy.message_cost(0)

    def test_mica2_per_message_dominates_per_byte(self):
        """The paper's observation that motivates approximation: merely
        contacting a node costs a lot regardless of payload size."""
        model = EnergyModel.mica2()
        assert model.per_message_mj > 10 * model.per_byte_mj

    def test_uniform_helper(self):
        model = EnergyModel.uniform(per_message_mj=2.0, per_value_mj=0.5)
        assert model.per_message_mj == 2.0
        assert model.per_value_mj == pytest.approx(0.5)
        assert model.message_cost(3) == pytest.approx(2.0 + 1.5)

    def test_frozen(self, energy):
        with pytest.raises(AttributeError):
            energy.per_message_mj = 0.0


def _design_constants_row() -> str:
    design = Path(__file__).resolve().parents[2] / "DESIGN.md"
    rows = [
        line
        for line in design.read_text().splitlines()
        if line.startswith("| MICA2 cost constants")
    ]
    assert len(rows) == 1, "DESIGN.md §4 must have one constants row"
    return rows[0]


def test_design_constants_row_matches_defaults():
    """DESIGN.md §4 states the constants ``EnergyModel()`` uses."""
    row = _design_constants_row()
    default = EnergyModel()
    message = re.search(r"s = ([\d.]+) mJ/message", row)
    per_byte = re.search(
        r"beta = \(([\d.]+) \+ ([\d.]+)\) mW / ([\d.]+) B/s = ([\d.]+) mJ/byte",
        row,
    )
    value = re.search(r"(\d+)-byte values", row)
    assert message and per_byte and value, row
    assert float(message.group(1)) == default.per_message_mj
    sending, receiving, rate, beta = map(float, per_byte.groups())
    assert (sending, receiving, rate) == (
        default.sending_mw,
        default.receiving_mw,
        default.byte_rate,
    )
    assert beta == pytest.approx(default.per_byte_mj, rel=1e-12)
    assert int(value.group(1)) == default.value_bytes
