"""One tenant's session: an engine plus lifecycle and backpressure.

A :class:`Session` wraps one :class:`~repro.query.engine.TopKEngine`
with the three concerns the engine itself does not have:

- **lifecycle** — ``open`` → ``closed`` (client) or ``expired``
  (idle past the service TTL); every request touches the idle clock
  through the owner's ``on_use`` hook;
- **serialization** — engines are single-threaded by design, so a
  per-session lock runs requests one at a time even when the socket
  front end handles many connections;
- **backpressure** — at most ``queue_limit`` requests may be pending
  (waiting or executing) per session; the next one is shed with a
  typed :class:`~repro.errors.OverloadError` instead of growing an
  unbounded queue;
- **draining** — during graceful shutdown the service flips every
  session into drain mode: requests already admitted run to their
  final replies, new work is refused with
  :class:`~repro.errors.ServiceUnavailableError` (``close_session``
  stays allowed so clients can wind down cleanly).

Time comes from an injectable monotonic clock so expiry tests are
deterministic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import (
    OverloadError,
    ServiceUnavailableError,
    SessionError,
)


class Session:
    """Lifecycle shell around one tenant's engine."""

    def __init__(
        self,
        session_id: str,
        topology_id: str,
        engine,
        *,
        on_use,
        queue_limit: int = 8,
        clock=None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("session queue limit must be >= 1")
        self.session_id = session_id
        self.topology_id = topology_id
        self.engine = engine
        self.queue_limit = queue_limit
        self._clock = clock
        # stamps ``last_used`` for the owner, which keeps its open
        # sessions in last-used order (see TopKService._mark_used)
        self._on_use = on_use
        self.state = "open"
        self.draining = False
        self.created_at = self._now()
        self.last_used = self.created_at
        self._serial = threading.Lock()
        self._admission = threading.Lock()
        self._pending = 0
        self.requests_handled = 0
        self.requests_shed = 0

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- lifecycle ------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self.state == "open"

    def ensure_open(self) -> None:
        if self.state == "closed":
            raise SessionError(
                f"session {self.session_id!r} is closed"
            )
        if self.state == "expired":
            raise SessionError(
                f"session {self.session_id!r} expired after idling past"
                " the service TTL"
            )

    def idle_seconds(self, now: float) -> float:
        return now - self.last_used

    def expire_if_idle(self, now: float, ttl_s: float) -> bool:
        """Flip an idle-open session to ``expired``; True when flipped."""
        if self.is_open and self.idle_seconds(now) > ttl_s:
            self.state = "expired"
            return True
        return False

    def close(self) -> None:
        self.ensure_open()
        self.state = "closed"

    def begin_drain(self) -> None:
        """Refuse new work from now on; in-flight requests finish."""
        self.draining = True

    # -- request admission ---------------------------------------------
    @contextmanager
    def slot(self, *, final: bool = False):
        """Admit one request: bounded pending count, serialized engine.

        Raises :class:`~repro.errors.OverloadError` when the session
        already has ``queue_limit`` requests pending — the shed happens
        *before* waiting on the serial lock, so an overloaded session
        fails fast instead of queuing unboundedly.  A draining session
        refuses everything except ``final`` requests (session close)
        with :class:`~repro.errors.ServiceUnavailableError`.
        """
        with self._admission:
            if self.draining and not final:
                self.requests_shed += 1
                raise ServiceUnavailableError(
                    f"session {self.session_id!r} is draining for"
                    " shutdown; request refused"
                )
            if self._pending >= self.queue_limit:
                self.requests_shed += 1
                raise OverloadError(
                    f"session {self.session_id!r} has {self._pending}"
                    f" requests pending (limit {self.queue_limit});"
                    " request shed"
                )
            self._pending += 1
        try:
            with self._serial:
                self.ensure_open()  # may have expired while waiting
                self._on_use(self)
                self.requests_handled += 1
                yield self.engine
                self._on_use(self)
        finally:
            with self._admission:
                self._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.session_id!r}, state={self.state!r},"
            f" pending={self._pending})"
        )
