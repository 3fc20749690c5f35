"""Per-node energy telemetry: who is spending the battery, and when.

The :class:`~repro.network.energy.EnergyModel` prices messages; the
simulators sum those prices into per-collection totals.  What neither
answers is the paper's real deployment question (§4.4): *which node*
dies first, and after how many epochs.  :class:`EnergyLedger`
accumulates radio cost per sending node — energy, messages, bytes —
from both the scalar :class:`~repro.simulation.runtime.Simulator` and
the vectorized :class:`~repro.simulation.batch.BatchSimulator` (the
two charge paths agree to float round-off; the equivalence suite pins
1e-9 relative tolerance), and derives:

- budget burn-down curves (worst-node remaining fraction per epoch),
- projected network lifetime (the epoch the first node exhausts its
  capacity),
- the top-N hottest nodes.

History is bounded, so a long-lived served session (one epoch per
query) holds constant memory: the running per-node totals cover every
epoch, while the per-epoch deltas behind the burn-down curve are kept
for the last :data:`HISTORY_EPOCHS` epochs only, plus the per-node
energy spent before that window.

Scope: the ledger attributes the *collection* radio costs (including
failure retries) to the sending node of each message.  Trigger
broadcasts and acquisition energy are whole-phase extras with no
single owner and stay in the report-level ``energy_mj`` totals only.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ObservabilityError

__all__ = ["EnergyLedger"]

HISTORY_EPOCHS = 1024
"""Per-epoch deltas an :class:`EnergyLedger` keeps (the newest ones)."""


class EnergyLedger:
    """Per-node accumulation of radio spend, with epoch snapshots.

    Parameters
    ----------
    num_nodes:
        Size of the network; node ids index the accumulation arrays.
    capacity_mj:
        Optional battery capacity per node (scalar, or an array of
        per-node capacities).  Required for burn-down curves and
        lifetime projection; without it the ledger only accumulates.

    ``epoch_energy`` holds the per-epoch deltas of the last
    :data:`HISTORY_EPOCHS` epochs; :attr:`num_epochs`, the running
    totals and :meth:`lifetime_epoch` still cover every epoch.
    """

    def __init__(
        self, num_nodes: int, capacity_mj: float | np.ndarray | None = None
    ) -> None:
        if num_nodes < 1:
            raise ObservabilityError("energy ledger needs >= 1 node")
        self.num_nodes = int(num_nodes)
        self.energy_mj = np.zeros(self.num_nodes, dtype=np.float64)
        self.messages = np.zeros(self.num_nodes, dtype=np.int64)
        self.bytes = np.zeros(self.num_nodes, dtype=np.int64)
        if capacity_mj is None:
            self.capacity_mj = None
        else:
            capacity = np.broadcast_to(
                np.asarray(capacity_mj, dtype=np.float64), (self.num_nodes,)
            ).copy()
            if (capacity <= 0).any():
                raise ObservabilityError("node capacity must be positive")
            self.capacity_mj = capacity
        self.epoch_energy: deque[np.ndarray] = deque(maxlen=HISTORY_EPOCHS)
        self._epochs = 0
        self._before_window = np.zeros(self.num_nodes, dtype=np.float64)
        self._lifetime_epoch: int | None = None
        # the deltas summed in epoch order, kept until the lifetime latches
        self._spent = np.zeros(self.num_nodes, dtype=np.float64)
        self._epoch_start = np.zeros(self.num_nodes, dtype=np.float64)

    # -- charging (scalar path) -----------------------------------------
    def charge(
        self, node: int, energy_mj: float, messages: int = 0, nbytes: int = 0
    ) -> None:
        """Attribute one message's (or retry's) cost to ``node``."""
        self.energy_mj[node] += energy_mj
        self.messages[node] += messages
        self.bytes[node] += nbytes

    def end_epoch(self) -> int:
        """Close the current epoch; returns its index (0-based).

        The per-epoch delta since the previous boundary becomes one
        point of the burn-down curve; the first epoch that leaves a
        node at or past its capacity is latched as the lifetime.
        """
        self._record(self.energy_mj - self._epoch_start)
        self._epoch_start = self.energy_mj.copy()
        return self._epochs - 1

    def _record(self, delta: np.ndarray) -> None:
        """Append one epoch's delta, folding the one it evicts from the
        window into the energy spent before the window, and latch the
        lifetime when this epoch leaves a node at or past capacity."""
        window = self.epoch_energy
        if len(window) == window.maxlen:
            self._before_window += window[0]
        window.append(delta)
        self._epochs += 1
        if self.capacity_mj is not None and self._lifetime_epoch is None:
            self._spent += delta
            if (self._spent >= self.capacity_mj).any():
                self._lifetime_epoch = self._epochs - 1

    # -- charging (precomputed epochs) ---------------------------------
    def charge_epoch(self, energy_mj, messages, nbytes) -> None:
        """Attribute one epoch's ``(n,)`` per-node energies, messages
        and bytes, then close it: a served query's collection, whose
        charges its plan fixes before any reading arrives."""
        self.messages += messages
        self.bytes += nbytes
        self.energy_mj += energy_mj
        self.end_epoch()

    def charge_epochs(self, energy_mj, messages=0, nbytes=0) -> None:
        """:meth:`charge_epoch` for each row of an ``(E, n)`` block of
        per-node energies, in row order.  ``messages``/``nbytes`` are
        ``(E, n)``, or ``(n,)`` counts applied to every epoch."""
        energy_mj = np.asarray(energy_mj, dtype=np.float64)
        if energy_mj.ndim != 2 or energy_mj.shape[1] != self.num_nodes:
            raise ObservabilityError(
                f"charge_epochs wants (E, {self.num_nodes}) energies,"
                f" got {energy_mj.shape}"
            )
        counts = []
        for name, block in (("messages", messages), ("nbytes", nbytes)):
            block = np.asarray(block, dtype=np.int64)
            try:
                counts.append(np.broadcast_to(block, energy_mj.shape))
            except ValueError:
                raise ObservabilityError(
                    f"charge_epochs {name} shape {block.shape} does not"
                    f" broadcast to {energy_mj.shape}"
                ) from None
        for row, sent, sized in zip(energy_mj, *counts):
            self.charge_epoch(row, sent, sized)

    # -- derived views ---------------------------------------------------
    @property
    def num_epochs(self) -> int:
        """Every epoch ended so far (not just the retained window)."""
        return self._epochs

    @property
    def total_mj(self) -> float:
        return float(self.energy_mj.sum())

    def cumulative_energy(self) -> np.ndarray:
        """``(E, n)`` cumulative per-node spend after each retained
        epoch (``E`` is at most :data:`HISTORY_EPOCHS`)."""
        if not self.epoch_energy:
            return np.zeros((0, self.num_nodes), dtype=np.float64)
        # summed in epoch order from the pre-window spend, so each row
        # is bitwise what a full-history cumulative sum gives
        return np.cumsum(
            np.stack([self._before_window, *self.epoch_energy]), axis=0
        )[1:]

    def remaining_fraction(self) -> np.ndarray:
        """``(E, n)`` battery fraction left after each retained epoch."""
        if self.capacity_mj is None:
            raise ObservabilityError(
                "remaining_fraction needs a ledger capacity_mj"
            )
        fraction = 1.0 - self.cumulative_energy() / self.capacity_mj
        return np.clip(fraction, 0.0, 1.0)

    def burn_down(self) -> np.ndarray:
        """``(E,)`` worst-node remaining fraction after each retained
        epoch — the curve whose zero crossing is the network lifetime."""
        remaining = self.remaining_fraction()
        if remaining.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return remaining.min(axis=1)

    def lifetime_epoch(self) -> int | None:
        """Index of the epoch during which the first node exhausted its
        capacity, or ``None`` if every node survived the run so far."""
        if self.capacity_mj is None:
            raise ObservabilityError(
                "lifetime_epoch needs a ledger capacity_mj"
            )
        return self._lifetime_epoch

    def projected_lifetime(self) -> float | None:
        """Epochs until first node death at the observed average burn
        rate (``None`` without capacity data or recorded epochs)."""
        if self.capacity_mj is None or not self.epoch_energy:
            return None
        rate = self.energy_mj / self.num_epochs
        with np.errstate(divide="ignore"):
            horizon = np.where(rate > 0, self.capacity_mj / rate, np.inf)
        first = float(horizon.min())
        return None if first == float("inf") else first

    def hottest(self, n: int = 5) -> list[dict]:
        """The ``n`` highest-spend nodes, hottest first."""
        order = np.argsort(self.energy_mj)[::-1][: max(0, n)]
        return [
            {
                "node": int(node),
                "energy_mj": float(self.energy_mj[node]),
                "messages": int(self.messages[node]),
                "bytes": int(self.bytes[node]),
            }
            for node in order
        ]

    def publish(self, instrumentation) -> None:
        """Push the ledger's headline numbers into a metrics registry
        (so Prometheus scrapes see them without a custom collector)."""
        gauge = instrumentation.gauge
        gauge("energy.ledger.total_mj").set(self.total_mj)
        gauge("energy.ledger.epochs").set(self.num_epochs)
        hottest = self.hottest(1)
        if hottest:
            gauge("energy.ledger.hottest_node").set(hottest[0]["node"])
            gauge("energy.ledger.hottest_mj").set(hottest[0]["energy_mj"])
        if self.capacity_mj is not None and self.num_epochs:
            burn = self.burn_down()
            gauge("energy.ledger.min_remaining_fraction").set(
                float(burn[-1])
            )
            lifetime = self.projected_lifetime()
            if lifetime is not None:
                gauge("energy.ledger.projected_lifetime_epochs").set(lifetime)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "capacity_mj": (
                None if self.capacity_mj is None else self.capacity_mj.tolist()
            ),
            "energy_mj": self.energy_mj.tolist(),
            "messages": self.messages.tolist(),
            "bytes": self.bytes.tolist(),
            "epoch_energy": [epoch.tolist() for epoch in self.epoch_energy],
            "energy_before_window_mj": self._before_window.tolist(),
            "epochs": self._epochs,
            "lifetime_epoch": self._lifetime_epoch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyLedger":
        try:
            ledger = cls(
                int(data["num_nodes"]), capacity_mj=data.get("capacity_mj")
            )
            ledger.energy_mj = np.asarray(data["energy_mj"], dtype=np.float64)
            ledger.messages = np.asarray(data["messages"], dtype=np.int64)
            ledger.bytes = np.asarray(data["bytes"], dtype=np.int64)
            before = data.get("energy_before_window_mj")
            if before is not None:
                ledger._before_window = np.asarray(before, dtype=np.float64)
                ledger._spent = ledger._before_window.copy()
            rows = data.get("epoch_energy", [])
            # replayed so a longer dump folds its oldest rows, and the
            # lifetime of a dump without the latch is found again
            ledger._epochs = int(data.get("epochs", len(rows))) - len(rows)
            for epoch in rows:
                ledger._record(np.asarray(epoch, dtype=np.float64))
            ledger._epoch_start = ledger.energy_mj.copy()
            if "lifetime_epoch" in data:
                lifetime = data["lifetime_epoch"]
                ledger._lifetime_epoch = (
                    None if lifetime is None else int(lifetime)
                )
            return ledger
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed energy ledger dump: {exc}"
            ) from exc

    def __repr__(self) -> str:
        return (
            f"EnergyLedger(nodes={self.num_nodes}, epochs={self.num_epochs},"
            f" total_mj={self.total_mj:g})"
        )
