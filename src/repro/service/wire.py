"""Binary wire protocol v2: length-prefixed, zero-copy.

The one protocol the socket service speaks, and the one codec of the
typed messages in :mod:`repro.service.messages`: they are packed with
:mod:`struct` into length-prefixed frames whose numeric payloads are
raw little-endian buffers a server can view with ``np.frombuffer``
without copying.

**Frame layout.**  One frame on the wire is::

    +----------------+---------------------------+------------------+
    | length  u32 BE | header  "<BBQ"            | payload          |
    |                | kind u8 · flags u8 · cid  | per-kind fields  |
    +----------------+---------------------------+------------------+

The length prefix covers header plus payload (bounded by
:data:`~repro.service.messages.MAX_FRAME_BYTES`).
``kind`` is a stable one-byte code from :data:`KIND_CODES`; ``cid`` is
the pipelining correlation id, meaningful only when
:data:`FLAG_CID` is set in ``flags``.  Payload fields are packed in
dataclass declaration order with the little-endian primitives in
:data:`_FIELD_SPECS` — strings as ``u32`` length plus UTF-8, vectors
as a count plus packed ``i64``/``f64``, matrices as ``rows·cols`` plus
a raw ``f64`` buffer, optional floats as a presence byte.  Decoding is
strict: unknown kind codes, unknown flag bits, truncated payloads, and
trailing bytes all raise :class:`~repro.errors.ProtocolError`.
Non-finite floats are rejected on encode, so
``decode_frame(encode_frame(m)[4:]) == (m, None)`` holds for every
message that encodes (property-tested).

**Preamble.**  Every connection opens with a fixed exchange of two
lines before the first frame: the client's *hello line*
(:func:`hello_line`) and the server's *accept line*
(:func:`accept_line`), each ``\\x00``-prefixed, newline-terminated and
exactly ``magic verb version``.  A server that reads anything but a
valid hello (:func:`parse_hello`) answers with one ``ErrorReply``
frame and closes; a client that reads anything but a valid accept
(:func:`parse_accept`) raises :class:`~repro.errors.ProtocolError`.
A line with a trailing token (an older peer's options) is refused
the same way, so two versions never misparse each other's frames.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from repro.errors import ProtocolError
from repro.obs.distributed import TraceContext
from repro.service.messages import (
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    Message,
)

PROTOCOL_V2 = "v2"

WIRE_MAGIC = b"\x00repro-wire"
"""Leading bytes of both preamble lines (the NUL prefix keeps a stray
text line from ever parsing as one)."""

FLAG_CID = 0x01
FLAG_TRACE = 0x02
_KNOWN_FLAGS = FLAG_CID | FLAG_TRACE

_PREFIX = struct.Struct(">I")
_HEADER = struct.Struct("<BBQ")
_TRACE_BLOCK = struct.Struct("<QQ")
"""Fixed-width trace context (trace id u64, parent span id u64),
present directly after the header when :data:`FLAG_TRACE` is set."""
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_SHAPE2 = struct.Struct("<II")

KIND_CODES: dict[str, int] = {
    "register_topology": 1,
    "open_session": 2,
    "feed_sample": 3,
    "submit_query": 4,
    "step_epoch": 5,
    "get_plan": 6,
    "close_session": 7,
    "get_stats": 8,
    "submit_batch": 9,
    "topology_registered": 10,
    "session_opened": 11,
    "sample_accepted": 12,
    "query_reply": 13,
    "step_reply": 14,
    "plan_reply": 15,
    "session_closed": 16,
    "stats_reply": 17,
    "error": 18,
    "batch_reply": 19,
}
"""Stable kind → wire code table.

Codes are part of the protocol: they never change meaning and new
kinds only ever append new codes (pinned by a test), so a v2 peer one
release ahead still frames the kinds both sides know identically.
"""

CODE_KINDS: dict[int, str] = {code: kind for kind, code in KIND_CODES.items()}

# Per-kind payload schema: (field name, field type) in dataclass
# declaration order.  Types: str · i (i64) · f (f64) · b (bool u8) ·
# ivec/fvec (count + packed) · fmat (rows·cols + raw f64 buffer) ·
# rivec/rfvec (ragged: row count, then per-row vectors) ·
# optf (presence byte + f64) · ofvec (count + per-element optf) ·
# json (presence byte + UTF-8 JSON document, for dict payloads).
_FIELD_SPECS: dict[str, tuple[tuple[str, str], ...]] = {
    "register_topology": (("parents", "ivec"),),
    "open_session": (
        ("topology_id", "str"),
        ("k", "i"),
        ("planner", "str"),
        ("budget_mj", "f"),
        ("window_capacity", "i"),
        ("replan_every", "i"),
        ("track_truth", "b"),
    ),
    "feed_sample": (("session_id", "str"), ("readings", "fvec")),
    "submit_query": (("session_id", "str"), ("readings", "fvec")),
    "step_epoch": (("session_id", "str"), ("readings", "fvec")),
    "submit_batch": (("session_id", "str"), ("readings", "fmat")),
    "get_plan": (("session_id", "str"),),
    "close_session": (("session_id", "str"),),
    "get_stats": (),
    "topology_registered": (("topology_id", "str"), ("num_nodes", "i")),
    "session_opened": (
        ("session_id", "str"),
        ("topology_id", "str"),
        ("planner", "str"),
    ),
    "sample_accepted": (("session_id", "str"), ("window_size", "i")),
    "query_reply": (
        ("session_id", "str"),
        ("nodes", "ivec"),
        ("values", "fvec"),
        ("energy_mj", "f"),
        ("accuracy", "optf"),
    ),
    "step_reply": (
        ("session_id", "str"),
        ("epoch", "i"),
        ("action", "str"),
        ("energy_mj", "f"),
        ("nodes", "ivec"),
        ("values", "fvec"),
        ("accuracy", "optf"),
    ),
    "batch_reply": (
        ("session_id", "str"),
        ("nodes", "rivec"),
        ("values", "rfvec"),
        ("energies", "fvec"),
        ("accuracies", "ofvec"),
    ),
    "plan_reply": (("session_id", "str"), ("plan", "json")),
    "session_closed": (
        ("session_id", "str"),
        ("epochs", "i"),
        ("total_energy_mj", "f"),
    ),
    "stats_reply": (
        ("sessions_open", "i"),
        ("sessions_total", "i"),
        ("topologies", "i"),
        ("counters", "json"),
    ),
    "error": (("error", "str"), ("message", "str")),
}


# -- preamble lines ---------------------------------------------------------


def hello_line() -> bytes:
    """The client's opening line."""
    return b"%s hello %s\n" % (WIRE_MAGIC, PROTOCOL_V2.encode())


def accept_line() -> bytes:
    """The server's answer to a valid hello."""
    return b"%s accept %s\n" % (WIRE_MAGIC, PROTOCOL_V2.encode())


def _parse_preamble(line: bytes, verb: str) -> None:
    parts = line.rstrip(b"\n").split(b" ")
    if (
        len(parts) != 3
        or parts[0] != WIRE_MAGIC
        or parts[1].decode("utf-8", "replace") != verb
    ):
        raise ProtocolError(f"malformed wire {verb} line: {line[:64]!r}")
    version = parts[2].decode("utf-8", "replace")
    if version != PROTOCOL_V2:
        raise ProtocolError(
            f"peer proposed unsupported wire protocol {version!r}"
        )


def parse_hello(line: bytes) -> None:
    """Validate a hello line; raises :class:`~repro.errors.ProtocolError`."""
    _parse_preamble(line, "hello")


def parse_accept(line: bytes) -> None:
    """Validate an accept line; raises
    :class:`~repro.errors.ProtocolError`."""
    _parse_preamble(line, "accept")


# -- field packers ----------------------------------------------------------


def _reject_nan(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ProtocolError("non-finite float cannot cross the wire")
    return value


def _pack_str(value, parts) -> None:
    raw = str(value).encode("utf-8")
    parts.append(_U32.pack(len(raw)))
    parts.append(raw)


def _pack_i(value, parts) -> None:
    parts.append(_I64.pack(int(value)))


def _pack_f(value, parts) -> None:
    parts.append(_F64.pack(_reject_nan(value)))


def _pack_b(value, parts) -> None:
    parts.append(b"\x01" if value else b"\x00")


def _pack_ivec(value, parts) -> None:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    parts.append(_U32.pack(len(value)))
    parts.append(struct.pack(f"<{len(value)}q", *(int(v) for v in value)))


def _float_buffer(value) -> np.ndarray:
    """``value`` as a contiguous little-endian float64 array, with
    non-finite values rejected as :func:`_reject_nan` rejects them."""
    arr = np.ascontiguousarray(value, dtype="<f8")
    if arr.size and not np.isfinite(arr).all():
        raise ProtocolError("non-finite float cannot cross the wire")
    return arr


def _pack_fvec(value, parts) -> None:
    if isinstance(value, np.ndarray):
        arr = _float_buffer(value)
        if arr.ndim != 1:
            raise ProtocolError("fvec payload must be one-dimensional")
        parts.append(_U32.pack(arr.shape[0]))
        parts.append(arr.tobytes())
        return
    parts.append(_U32.pack(len(value)))
    parts.append(
        struct.pack(
            f"<{len(value)}d", *(_reject_nan(v) for v in value)
        )
    )


def _pack_fmat(value, parts) -> None:
    arr = _float_buffer(value)
    if arr.ndim == 1 and arr.size == 0:
        # an empty batch (`()`) coerces to shape (0,); frame it as 0x0
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ProtocolError("fmat payload must be a 2-d matrix")
    parts.append(_SHAPE2.pack(arr.shape[0], arr.shape[1]))
    parts.append(arr.tobytes())


def _pack_rivec(value, parts) -> None:
    parts.append(_U32.pack(len(value)))
    for row in value:
        _pack_ivec(row, parts)


def _pack_rfvec(value, parts) -> None:
    parts.append(_U32.pack(len(value)))
    for row in value:
        if isinstance(row, np.ndarray):
            row = row.tolist()
        parts.append(_U32.pack(len(row)))
        parts.append(
            struct.pack(f"<{len(row)}d", *(_reject_nan(v) for v in row))
        )


def _pack_optf(value, parts) -> None:
    if value is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(_F64.pack(_reject_nan(value)))


def _pack_ofvec(value, parts) -> None:
    parts.append(_U32.pack(len(value)))
    for item in value:
        _pack_optf(item, parts)


def _pack_json(value, parts) -> None:
    if value is None:
        parts.append(b"\x00")
        return
    parts.append(b"\x01")
    raw = json.dumps(value, allow_nan=False, sort_keys=True).encode("utf-8")
    parts.append(_U32.pack(len(raw)))
    parts.append(raw)


_PACKERS = {
    "str": _pack_str,
    "i": _pack_i,
    "f": _pack_f,
    "b": _pack_b,
    "ivec": _pack_ivec,
    "fvec": _pack_fvec,
    "fmat": _pack_fmat,
    "rivec": _pack_rivec,
    "rfvec": _pack_rfvec,
    "optf": _pack_optf,
    "ofvec": _pack_ofvec,
    "json": _pack_json,
}


# -- field unpackers --------------------------------------------------------


def _need(view: memoryview, offset: int, count: int) -> None:
    if offset + count > len(view):
        raise ProtocolError(
            f"truncated frame payload: wanted {count} bytes at offset"
            f" {offset}, frame ends at {len(view)}"
        )


def _unpack_str(view, offset, vectors):
    _need(view, offset, 4)
    (length,) = _U32.unpack_from(view, offset)
    offset += 4
    _need(view, offset, length)
    try:
        value = bytes(view[offset : offset + length]).decode("utf-8")
    except UnicodeDecodeError as err:
        raise ProtocolError(f"invalid UTF-8 in string field: {err}") from err
    return value, offset + length


def _unpack_i(view, offset, vectors):
    _need(view, offset, 8)
    (value,) = _I64.unpack_from(view, offset)
    return value, offset + 8


def _unpack_f(view, offset, vectors):
    _need(view, offset, 8)
    (value,) = _F64.unpack_from(view, offset)
    return value, offset + 8


def _unpack_b(view, offset, vectors):
    _need(view, offset, 1)
    return bool(view[offset]), offset + 1


def _unpack_ivec(view, offset, vectors):
    _need(view, offset, 4)
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    _need(view, offset, 8 * count)
    value = struct.unpack_from(f"<{count}q", view, offset)
    return value, offset + 8 * count


def _unpack_fvec(view, offset, vectors):
    _need(view, offset, 4)
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    _need(view, offset, 8 * count)
    if vectors == "array":
        value = np.frombuffer(view, dtype="<f8", count=count, offset=offset)
        return value, offset + 8 * count
    value = struct.unpack_from(f"<{count}d", view, offset)
    return value, offset + 8 * count


def _unpack_fmat(view, offset, vectors):
    _need(view, offset, 8)
    rows, cols = _SHAPE2.unpack_from(view, offset)
    offset += 8
    _need(view, offset, 8 * rows * cols)
    arr = np.frombuffer(
        view, dtype="<f8", count=rows * cols, offset=offset
    ).reshape(rows, cols)
    offset += 8 * rows * cols
    if vectors == "array":
        return arr, offset
    return tuple(tuple(row) for row in arr.tolist()), offset


def _unpack_rivec(view, offset, vectors):
    _need(view, offset, 4)
    (rows,) = _U32.unpack_from(view, offset)
    offset += 4
    value = []
    for _ in range(rows):
        row, offset = _unpack_ivec(view, offset, vectors)
        value.append(row)
    return tuple(value), offset


def _unpack_rfvec(view, offset, vectors):
    _need(view, offset, 4)
    (rows,) = _U32.unpack_from(view, offset)
    offset += 4
    value = []
    for _ in range(rows):
        _need(view, offset, 4)
        (count,) = _U32.unpack_from(view, offset)
        offset += 4
        _need(view, offset, 8 * count)
        value.append(struct.unpack_from(f"<{count}d", view, offset))
        offset += 8 * count
    return tuple(value), offset


def _unpack_optf(view, offset, vectors):
    _need(view, offset, 1)
    flag = view[offset]
    offset += 1
    if flag == 0:
        return None, offset
    if flag != 1:
        raise ProtocolError(f"invalid optional-float presence byte {flag}")
    _need(view, offset, 8)
    (value,) = _F64.unpack_from(view, offset)
    return value, offset + 8


def _unpack_ofvec(view, offset, vectors):
    _need(view, offset, 4)
    (count,) = _U32.unpack_from(view, offset)
    offset += 4
    value = []
    for _ in range(count):
        item, offset = _unpack_optf(view, offset, vectors)
        value.append(item)
    return tuple(value), offset


def _unpack_json(view, offset, vectors):
    _need(view, offset, 1)
    flag = view[offset]
    offset += 1
    if flag == 0:
        return None, offset
    if flag != 1:
        raise ProtocolError(f"invalid json presence byte {flag}")
    raw, offset = _unpack_str(view, offset, vectors)
    try:
        return json.loads(raw), offset
    except ValueError as err:
        raise ProtocolError(f"invalid embedded JSON payload: {err}") from err


_UNPACKERS = {
    "str": _unpack_str,
    "i": _unpack_i,
    "f": _unpack_f,
    "b": _unpack_b,
    "ivec": _unpack_ivec,
    "fvec": _unpack_fvec,
    "fmat": _unpack_fmat,
    "rivec": _unpack_rivec,
    "rfvec": _unpack_rfvec,
    "optf": _unpack_optf,
    "ofvec": _unpack_ofvec,
    "json": _unpack_json,
}


# -- frames -----------------------------------------------------------------


def encode_frame(
    message: Message, cid: int | None = None, trace=None
) -> bytes:
    """One complete v2 frame (length prefix included) for ``message``.

    ``cid`` is the pipelining correlation id carried in the header;
    ``trace`` (a
    :class:`~repro.obs.distributed.TraceContext`) adds the fixed-width
    trace-context block behind :data:`FLAG_TRACE`.
    """
    code = KIND_CODES.get(message.kind)
    if code is None:
        raise ProtocolError(f"unknown message kind {message.kind!r}")
    flags = 0
    header_cid = 0
    if cid is not None:
        flags |= FLAG_CID
        header_cid = int(cid)
        if not 0 <= header_cid < 1 << 64:
            raise ProtocolError("correlation id out of u64 range")
    if trace is not None:
        flags |= FLAG_TRACE
    parts = [b"", _HEADER.pack(code, flags, header_cid)]
    if trace is not None:
        if not (
            0 < trace.trace_id < 1 << 64
            and 0 <= trace.parent_span_id < 1 << 64
        ):
            raise ProtocolError("trace context ids out of u64 range")
        parts.append(
            _TRACE_BLOCK.pack(trace.trace_id, trace.parent_span_id)
        )
    specs = _FIELD_SPECS[message.kind]
    for name, ftype in specs:
        _PACKERS[ftype](getattr(message, name), parts)
    body_len = sum(len(p) for p in parts)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {body_len} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte protocol limit"
        )
    parts[0] = _PREFIX.pack(body_len)
    return b"".join(parts)


def decode_frame_trace(
    body: bytes | memoryview,
    *,
    vectors: str = "tuple",
) -> tuple[Message, int | None, "object | None"]:
    """Rehydrate one frame *body* (header + payload, no length prefix)
    into ``(message, correlation id, trace context)``.

    ``vectors="tuple"`` (the default) produces the canonical tuple
    form, so ``decode_frame(encode_frame(m)) == (m, None)`` exactly;
    ``vectors="array"`` hands float vectors and matrices back as
    zero-copy read-only ``np.frombuffer`` views over the frame buffer
    — the server's data-plane mode.  The trace context is a
    :class:`~repro.obs.distributed.TraceContext` when the frame
    carries :data:`FLAG_TRACE`, else ``None``.  Violations
    (truncation, trailing bytes, unknown kind codes or flag bits)
    raise :class:`~repro.errors.ProtocolError`.
    """
    view = memoryview(body)
    if len(view) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(view)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte protocol limit"
        )
    if len(view) < _HEADER.size:
        raise ProtocolError(
            f"frame of {len(view)} bytes is shorter than the"
            f" {_HEADER.size}-byte header"
        )
    code, flags, header_cid = _HEADER.unpack_from(view, 0)
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown flag bits 0x{flags:02x} in frame header")
    kind = CODE_KINDS.get(code)
    if kind is None:
        raise ProtocolError(f"unknown wire kind code {code}")
    cid = header_cid if flags & FLAG_CID else None
    offset = _HEADER.size
    trace = None
    if flags & FLAG_TRACE:
        _need(view, offset, _TRACE_BLOCK.size)
        trace_id, parent_span_id = _TRACE_BLOCK.unpack_from(view, offset)
        offset += _TRACE_BLOCK.size
        if trace_id == 0:
            raise ProtocolError("trace context block carries trace id 0")
        trace = TraceContext(
            trace_id=trace_id, parent_span_id=parent_span_id
        )
    payload = {}
    for name, ftype in _FIELD_SPECS[kind]:
        payload[name], offset = _UNPACKERS[ftype](view, offset, vectors)
    if offset != len(view):
        raise ProtocolError(
            f"{len(view) - offset} trailing payload bytes after"
            f" {kind!r} frame fields"
        )
    return MESSAGE_KINDS[kind](**payload), cid, trace


def decode_frame(
    body: bytes | memoryview,
    *,
    vectors: str = "tuple",
) -> tuple[Message, int | None]:
    """:func:`decode_frame_trace` without the trace context — the
    original two-tuple surface most call sites (and tests) use."""
    message, cid, __ = decode_frame_trace(body, vectors=vectors)
    return message, cid


def _check_length(length: int) -> None:
    """Raise :class:`~repro.errors.ProtocolError` on a length prefix
    over the frame bound or under the header size."""
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte protocol limit"
        )
    if length < _HEADER.size:
        raise ProtocolError(f"frame length {length} is below the header size")


def frame_end(data, offset: int = 0, *, eof: bool = False) -> int | None:
    """Where the length-prefixed frame starting at ``data[offset:]`` ends.

    Returns the offset just past the frame, or ``None`` while the
    buffer holds only part of it (or nothing at all).  Raises
    :class:`~repro.errors.ProtocolError` on a length prefix over the
    frame bound or under the header size, and — when ``eof`` says no
    more bytes will come — on a frame cut short.  The stream is
    unrecoverable past any of these (no resync is attempted).
    """
    available = len(data) - offset
    if available < 4:
        if eof and available:
            raise ProtocolError(
                f"truncated frame length prefix ({available} of 4 bytes)"
            )
        return None
    (length,) = _PREFIX.unpack_from(data, offset)
    _check_length(length)
    if available - 4 < length:
        if eof:
            raise ProtocolError(
                f"truncated frame body ({available - 4} of {length} bytes)"
            )
        return None
    return offset + 4 + length


def read_frame_blocking(sock_file) -> bytes:
    """Read one frame body from a blocking binary file object.

    Returns ``b""`` at clean EOF (before any prefix byte); raises
    :class:`~repro.errors.ProtocolError` on a truncated prefix or
    body, and on a length prefix outside the frame bounds (the stream
    is unrecoverable past that point — no resync is attempted).
    """
    prefix = sock_file.read(4)
    if not prefix:
        return b""
    if len(prefix) < 4:
        raise ProtocolError(
            f"truncated frame length prefix ({len(prefix)} of 4 bytes)"
        )
    (length,) = _PREFIX.unpack(prefix)
    _check_length(length)
    body = sock_file.read(length)
    if len(body) < length:
        raise ProtocolError(
            f"truncated frame body ({len(body)} of {length} bytes)"
        )
    return body
