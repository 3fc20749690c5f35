"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ModelError(ReproError):
    """An LP model was constructed or used inconsistently.

    Raised, for example, when a variable from one model is used in a
    constraint added to a different model, or when an objective is
    requested before one has been set.
    """


class SolverError(ReproError):
    """An LP solve failed (infeasible, unbounded, or backend failure)."""

    def __init__(self, message: str, status: str = "error") -> None:
        super().__init__(message)
        self.status = status


class TopologyError(ReproError):
    """A sensor network topology is invalid or cannot be constructed.

    Raised when placement parameters make a connected spanning tree
    impossible (radio range too small) or when tree invariants are
    violated (multiple roots, cycles, unknown node ids).
    """


class PlanError(ReproError):
    """A query plan is malformed or inconsistent with its topology."""


class BudgetError(ReproError):
    """An energy budget is too small to admit any feasible plan."""


class SamplingError(ReproError):
    """Sample data is missing, malformed, or inconsistent with the network."""


class TraceError(ReproError):
    """A sensor reading trace is malformed or exhausted."""


class ObservabilityError(ReproError):
    """The observability subsystem was used inconsistently.

    Raised for unknown instant-event kinds, malformed metric dumps, and other
    misuse of :mod:`repro.obs`; never raised on the hot path when
    instrumentation is disabled.
    """


class ServiceError(ReproError):
    """Base class for the multi-tenant query service's failures.

    Subclasses travel over the wire by class name (see
    :mod:`repro.service.messages`), so a socket client raises the same
    typed error an in-process caller would.
    """


class ProtocolError(ServiceError):
    """A wire-protocol violation (framing, preamble, or payload).

    Raised when a peer breaks the binary framing rules — a
    malformed or truncated frame, trailing payload bytes, an unknown
    kind code — or when the connection preamble
    fails (a first line that is not a valid hello, or a hello answered
    with anything but an accept line).
    Distinct from :class:`ServiceError` proper so clients can tell
    "the bytes were wrong" from "the request was wrong".
    """


class SessionError(ServiceError):
    """A session id is unknown, already closed, or idle-expired."""


class AdmissionError(ServiceError):
    """The service refused to open a session (admission control).

    Raised when the configured maximum number of concurrent sessions
    is reached; callers should retry later or close idle sessions.
    """


class OverloadError(ServiceError):
    """A request was shed under backpressure.

    Raised when a session's bounded request queue is full; the request
    was *not* executed and can safely be retried after a backoff.
    """


class ServiceUnavailableError(ServiceError):
    """The service endpoint cannot be reached (or stopped responding).

    Raised by :class:`~repro.service.client.SocketClient` when a
    connect or read times out or the peer drops the connection, and by
    a draining service that refuses new work during graceful shutdown.
    Idempotent requests are transparently retried once over a fresh
    connection before this is raised.
    """
