"""The structured event trace: a ring buffer of typed events.

Every cross-cutting layer appends events of a known kind (an LP was
solved, a plan was built/installed, a replan was skipped, ...) with a
flat payload of numbers and strings.  The trace is a bounded deque: old
events are evicted once ``capacity`` is exceeded, while ``dropped``
reports how many were lost, so a long engine run never grows without
bound but the reporter can still say so.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ObservabilityError

EVENT_KINDS = (
    "lp_solve",
    "lp_sweep",
    "lp_batch",
    "plan_built",
    "plan_installed",
    "sample_collected",
    "replan_skipped",
    "failure_observed",
    "audit_run",
    "shard_lifecycle",
    "session_expired",
)
"""The typed event vocabulary; ``record`` rejects anything else."""

_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class Event:
    """One recorded occurrence."""

    seq: int
    """Global sequence number (monotonic, survives eviction)."""

    kind: str
    data: dict = field(default_factory=dict)

    ts: float = 0.0
    """Clock reading at record time (tracer clock; perf-counter
    seconds by default, so only differences are meaningful)."""

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "data": dict(self.data),
            "ts": self.ts,
        }


class EventTrace:
    """Bounded, ordered log of :class:`Event` records.

    The clock is injectable (default ``time.perf_counter``) and stamps
    each event's ``ts``, which the Chrome-trace exporter uses to place
    instant events on the span timeline.
    """

    def __init__(
        self,
        capacity: int = 1024,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("event trace capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock or time.perf_counter
        self._events: deque[Event] = deque(maxlen=capacity)
        self._next_seq = 0

    def record(self, kind: str, **data) -> Event:
        """Append one event; returns it for convenience."""
        if kind not in _KIND_SET:
            raise ObservabilityError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        event = Event(self._next_seq, kind, data, ts=self.clock())
        self._next_seq += 1
        self._events.append(event)
        return event

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def total_recorded(self) -> int:
        return self._next_seq

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer so far."""
        return self._next_seq - len(self._events)

    def events(self, kind: str | None = None) -> list[Event]:
        """Retained events, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def kinds(self) -> list[str]:
        """The kind of each retained event, in order."""
        return [event.kind for event in self._events]

    def counts(self) -> dict[str, int]:
        """Retained events per kind (insertion-ordered by vocabulary)."""
        totals = {kind: 0 for kind in EVENT_KINDS}
        for event in self._events:
            totals[event.kind] += 1
        return {kind: n for kind, n in totals.items() if n}

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "next_seq": self._next_seq,
            "events": [event.to_dict() for event in self._events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventTrace":
        try:
            trace = cls(capacity=int(data["capacity"]))
            for dump in data["events"]:
                trace._events.append(
                    Event(
                        int(dump["seq"]),
                        dump["kind"],
                        dict(dump["data"]),
                        ts=float(dump.get("ts", 0.0)),
                    )
                )
            trace._next_seq = int(data["next_seq"])
            return trace
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed event trace dump: {exc}") from exc
