"""The service's typed requests and replies.

Every message is a frozen dataclass with a class-level ``kind`` tag.
The binary codec in :mod:`repro.service.wire` is their one encoding:
it frames them for the socket and rehydrates the exact same value
(``decode_frame(encode_frame(m)[4:]) == (m, None)``, property-tested).
To keep that round-trip exact, sequence fields are tuples (lists
normalize on construction) and optional accuracies use ``None``
rather than NaN (the codec rejects non-finite floats).

Plan payloads ride as the plain dicts produced by
:func:`repro.plans.serialize.plan_to_dict`, so a reply's plan can be
fed straight to :func:`~repro.plans.serialize.plan_from_dict` or
archived as-is.

Failures cross the wire as :class:`ErrorReply` carrying the exception
*class name* from :mod:`repro.errors`; clients re-raise the matching
typed error (see :func:`error_from_reply`).

Messages carry no correlation ids or trace contexts: those ride in
the binary frame header (see :mod:`repro.service.wire`).

**Frame bound.** :data:`MAX_FRAME_BYTES` caps one encoded frame; the
wire codec and the socket front end's preamble read reject oversized
input with a typed :class:`~repro.errors.ProtocolError` instead of
buffering without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import repro.errors as _errors
from repro.errors import ServiceError

MAX_FRAME_BYTES = 1_048_576
"""Upper bound on one encoded frame (1 MiB).

Large enough for any realistic readings vector or serialized plan,
small enough that a misbehaving peer cannot make the server buffer an
unbounded line.  The wire frame checks
(:func:`repro.service.wire.frame_end`, ``decode_frame``,
``encode_frame``) and the socket front end's preamble read all
enforce it.
"""


def _tuplify(message, *names) -> None:
    """Normalize list-valued fields to tuples, so a message built from
    lists compares equal to the tuple form the wire codec decodes."""
    for name in names:
        value = getattr(message, name)
        if isinstance(value, list):
            object.__setattr__(message, name, tuple(value))


def _tuplify_nested(message, *names) -> None:
    """Like :func:`_tuplify` but one level deeper, for matrix-shaped
    fields (tuples of row tuples).  Numpy arrays pass through untouched:
    the wire codec packs them zero-copy."""
    for name in names:
        value = getattr(message, name)
        if isinstance(value, (list, tuple)):
            object.__setattr__(
                message,
                name,
                tuple(
                    tuple(row) if isinstance(row, list) else row
                    for row in value
                ),
            )


@dataclass(frozen=True)
class Message:
    """Base: the ``kind`` discriminator every message carries."""

    kind: ClassVar[str]


def with_session_id(message: Message, session_id: str) -> Message:
    """A copy of ``message`` addressed to ``session_id``.

    Copies the instance's fields as they are, so ``__post_init__``
    (the tuple normalization of every reading) does not run again the
    way it would under :func:`dataclasses.replace`.
    """
    clone = object.__new__(type(message))
    clone.__dict__.update(message.__dict__)
    clone.__dict__["session_id"] = session_id
    return clone


# -- requests ---------------------------------------------------------------


@dataclass(frozen=True)
class RegisterTopology(Message):
    """Install a topology (by parents vector) into the service registry.

    Idempotent: the reply's ``topology_id`` is the content fingerprint
    (:func:`repro.plans.serialize.topology_fingerprint`), so the same
    tree registers to the same id from any client.
    """

    kind: ClassVar[str] = "register_topology"
    parents: tuple = ()

    def __post_init__(self) -> None:
        _tuplify(self, "parents")


@dataclass(frozen=True)
class OpenSession(Message):
    """Create one tenant session on a registered topology."""

    kind: ClassVar[str] = "open_session"
    topology_id: str = ""
    k: int = 5
    planner: str = "lp-lf"
    budget_mj: float = 500.0
    window_capacity: int = 25
    replan_every: int = 10
    track_truth: bool = True


@dataclass(frozen=True)
class FeedSample(Message):
    """Add one full-network sample to the session's window."""

    kind: ClassVar[str] = "feed_sample"
    session_id: str = ""
    readings: tuple = ()

    def __post_init__(self) -> None:
        _tuplify(self, "readings")


@dataclass(frozen=True)
class SubmitQuery(Message):
    """Execute the session's installed plan on this epoch's readings."""

    kind: ClassVar[str] = "submit_query"
    session_id: str = ""
    readings: tuple = ()

    def __post_init__(self) -> None:
        _tuplify(self, "readings")


@dataclass(frozen=True)
class StepEpoch(Message):
    """One explore/exploit epoch (the engine decides sample vs query)."""

    kind: ClassVar[str] = "step_epoch"
    session_id: str = ""
    readings: tuple = ()

    def __post_init__(self) -> None:
        _tuplify(self, "readings")


@dataclass(frozen=True)
class SubmitBatch(Message):
    """Execute the installed plan on many epochs' readings at once.

    ``readings`` is a ``(B, n)`` matrix (tuple of row tuples, or a
    numpy array on the binary codec's zero-copy path).  The server
    answers with one :class:`BatchReply` whose rows are *bitwise
    identical* to the :class:`QueryReply` stream the same ``B``
    :class:`SubmitQuery` frames would have produced — batching changes
    the framing and the executor (one vectorized pass instead of ``B``
    scalar walks), never the answers.
    """

    kind: ClassVar[str] = "submit_batch"
    session_id: str = ""
    readings: tuple = ()

    def __post_init__(self) -> None:
        _tuplify_nested(self, "readings")


@dataclass(frozen=True)
class GetPlan(Message):
    """Fetch the session's installed plan (planning it if needed)."""

    kind: ClassVar[str] = "get_plan"
    session_id: str = ""


@dataclass(frozen=True)
class CloseSession(Message):
    kind: ClassVar[str] = "close_session"
    session_id: str = ""


@dataclass(frozen=True)
class GetStats(Message):
    """Service-wide stats: sessions, cache counters, energy headlines."""

    kind: ClassVar[str] = "get_stats"


# -- replies ----------------------------------------------------------------


@dataclass(frozen=True)
class TopologyRegistered(Message):
    kind: ClassVar[str] = "topology_registered"
    topology_id: str = ""
    num_nodes: int = 0


@dataclass(frozen=True)
class SessionOpened(Message):
    kind: ClassVar[str] = "session_opened"
    session_id: str = ""
    topology_id: str = ""
    planner: str = ""


@dataclass(frozen=True)
class SampleAccepted(Message):
    kind: ClassVar[str] = "sample_accepted"
    session_id: str = ""
    window_size: int = 0


@dataclass(frozen=True)
class QueryReply(Message):
    """The approximate top-k answer of one query execution.

    ``accuracy`` is ``None`` when the session does not track ground
    truth (never NaN: the wire codec rejects non-finite floats).
    """

    kind: ClassVar[str] = "query_reply"
    session_id: str = ""
    nodes: tuple = ()
    values: tuple = ()
    energy_mj: float = 0.0
    accuracy: float | None = None

    def __post_init__(self) -> None:
        _tuplify(self, "nodes", "values")


@dataclass(frozen=True)
class StepReply(Message):
    """Outcome of one engine epoch; ``nodes``/``values`` are empty when
    the epoch sampled instead of querying."""

    kind: ClassVar[str] = "step_reply"
    session_id: str = ""
    epoch: int = 0
    action: str = ""
    energy_mj: float = 0.0
    nodes: tuple = ()
    values: tuple = ()
    accuracy: float | None = None

    def __post_init__(self) -> None:
        _tuplify(self, "nodes", "values")


@dataclass(frozen=True)
class BatchReply(Message):
    """Per-epoch answers of one :class:`SubmitBatch` execution.

    Row ``i`` of ``nodes``/``values`` plus ``energies[i]`` and
    ``accuracies[i]`` is exactly what ``SubmitQuery`` on row ``i``
    would have returned; ``accuracies`` elements are ``None`` when the
    session does not track ground truth.
    """

    kind: ClassVar[str] = "batch_reply"
    session_id: str = ""
    nodes: tuple = ()
    values: tuple = ()
    energies: tuple = ()
    accuracies: tuple = ()

    def __post_init__(self) -> None:
        _tuplify_nested(self, "nodes", "values")
        _tuplify(self, "energies", "accuracies")


@dataclass(frozen=True)
class PlanReply(Message):
    """The installed plan as a :mod:`repro.plans.serialize` payload."""

    kind: ClassVar[str] = "plan_reply"
    session_id: str = ""
    plan: dict | None = None


@dataclass(frozen=True)
class SessionClosed(Message):
    kind: ClassVar[str] = "session_closed"
    session_id: str = ""
    epochs: int = 0
    total_energy_mj: float = 0.0


@dataclass(frozen=True)
class StatsReply(Message):
    kind: ClassVar[str] = "stats_reply"
    sessions_open: int = 0
    sessions_total: int = 0
    topologies: int = 0
    counters: dict | None = None


@dataclass(frozen=True)
class ErrorReply(Message):
    """A typed failure: ``error`` names a :mod:`repro.errors` class."""

    kind: ClassVar[str] = "error"
    error: str = "ServiceError"
    message: str = ""


_MESSAGE_TYPES: tuple[type[Message], ...] = (
    RegisterTopology,
    OpenSession,
    FeedSample,
    SubmitQuery,
    SubmitBatch,
    StepEpoch,
    GetPlan,
    CloseSession,
    GetStats,
    TopologyRegistered,
    SessionOpened,
    SampleAccepted,
    QueryReply,
    BatchReply,
    StepReply,
    PlanReply,
    SessionClosed,
    StatsReply,
    ErrorReply,
)

MESSAGE_KINDS: dict[str, type[Message]] = {
    cls.kind: cls for cls in _MESSAGE_TYPES
}

REQUEST_KINDS: frozenset[str] = frozenset(
    cls.kind
    for cls in (
        RegisterTopology,
        OpenSession,
        FeedSample,
        SubmitQuery,
        SubmitBatch,
        StepEpoch,
        GetPlan,
        CloseSession,
        GetStats,
    )
)


def error_to_reply(err: Exception) -> ErrorReply:
    """Serialize a failure as a typed :class:`ErrorReply`."""
    return ErrorReply(error=type(err).__name__, message=str(err))


def error_from_reply(reply: ErrorReply) -> Exception:
    """The client-side inverse: re-raise the matching typed error.

    Unknown names (a newer server, say) degrade to
    :class:`~repro.errors.ServiceError` rather than failing opaquely.
    """
    cls = getattr(_errors, reply.error, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = ServiceError
    return cls(reply.message)
