"""Wire-codec micro-benchmark: the JSON debug codec vs binary v2.

One row per representative message shape.  Each codec is timed on full
``decode(encode(m))`` round trips — the work a connection actually
pays per frame — and every timed pair is checked for exact equality
first, so the speedups can never come from dropping fidelity:

- ``submit_query`` / ``query_reply``: the scalar request/reply pair
  (an ``n``-float readings vector, a ``k``-row answer);
- ``feed_sample``: the streaming ingest frame;
- ``submit_batch`` / ``batch_reply``: the batched data plane — a
  ``(B, n)`` readings matrix and its per-epoch replies, where the
  binary codec's raw-buffer framing shows up most;
- ``submit_batch_blob``: the same matrix through a
  :class:`~repro.service.artifacts.BlobSpool`, where the frame shrinks
  to a content-named reference (the same-host shared-memory fast
  path); ``bytes_ratio`` is the interesting column — the digest makes
  encode compute-bound, so its speedup is not asserted.

The ``v1`` columns time the JSON debug codec
(:func:`repro.service.messages.encode` / ``decode``), which no socket
speaks; it stays here as the baseline the binary codec is measured
against.  ``codec_speedup`` is v2 round-trips/sec over the JSON debug
codec's on the same message; ``bytes_ratio`` is the JSON line size over
the v2 frame's.  The acceptance bars — v2 >= 4x codec speed on the
batched request, >= 1.2x on the ragged batched reply, and >= 2x byte
compaction on the matrix — are asserted at full size and archived
into ``results/BENCH_wire.json``
(``BENCH_wire.quick.json`` for a quick run) for the regression gate.

``run(quick=True)`` (or ``--quick`` / ``BENCH_QUICK=1``) shrinks the
iteration counts for the CI smoke job, which still asserts round-trip
equality on every shape without enforcing the full-size bars.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import numpy as np
from _helpers import record, write_payload

from repro.service import messages as msg
from repro.service import wire
from repro.service.artifacts import BlobSpool

N = 30
K = 5
BATCH = 64


def _messages() -> dict[str, msg.Message]:
    rng = np.random.default_rng(2006)
    readings = tuple(float(v) for v in rng.normal(25.0, 3.0, N))
    matrix = tuple(
        tuple(float(v) for v in rng.normal(25.0, 3.0, N))
        for __ in range(BATCH)
    )
    return {
        "submit_query": msg.SubmitQuery(
            session_id="s0001", readings=readings
        ),
        "feed_sample": msg.FeedSample(session_id="s0001", readings=readings),
        "query_reply": msg.QueryReply(
            session_id="s0001",
            nodes=tuple(range(K)),
            values=readings[:K],
            energy_mj=12.5,
            accuracy=0.8,
        ),
        "submit_batch": msg.SubmitBatch(
            session_id="s0001", readings=matrix
        ),
        "batch_reply": msg.BatchReply(
            session_id="s0001",
            nodes=tuple(tuple(range(K)) for __ in range(BATCH)),
            values=tuple(row[:K] for row in matrix),
            energies=tuple(row[0] for row in matrix),
            accuracies=tuple(
                0.8 if i % 3 else None for i in range(BATCH)
            ),
        ),
    }


def _time_round_trips(round_trip, iterations: int) -> float:
    round_trip()  # warm caches; equality asserted before timing anyway
    start = time.perf_counter()
    for __ in range(iterations):
        round_trip()
    return iterations / max(time.perf_counter() - start, 1e-12)


def _row(name: str, message: msg.Message, iterations: int, spool=None):
    line = (msg.encode(message) + "\n").encode()
    frame = wire.encode_frame(message, spool=spool)

    # fidelity first: both codecs must reproduce the message exactly
    assert msg.decode(line.decode()) == message
    decoded, __ = wire.decode_frame(frame[4:], spool=spool)
    assert decoded == message

    def v1_round_trip():
        msg.decode(msg.encode(message))

    def v2_round_trip():
        wire.decode_frame(
            wire.encode_frame(message, spool=spool)[4:], spool=spool
        )

    v1_rps = _time_round_trips(v1_round_trip, iterations)
    v2_rps = _time_round_trips(v2_round_trip, iterations)
    return {
        "message": name,
        "iterations": iterations,
        "v1_rps": v1_rps,
        "v2_rps": v2_rps,
        "codec_speedup": v2_rps / max(v1_rps, 1e-12),
        "bytes_v1": len(line),
        "bytes_v2": len(frame),
        "bytes_ratio": len(line) / max(len(frame), 1),
    }


def run(quick: bool = False) -> list[dict]:
    small_iters, big_iters = (300, 60) if quick else (4000, 800)
    rows = []
    for name, message in _messages().items():
        iterations = (
            big_iters if name in ("submit_batch", "batch_reply")
            else small_iters
        )
        rows.append(_row(name, message, iterations))
    with tempfile.TemporaryDirectory() as blob_dir:
        spool = BlobSpool(blob_dir, threshold=4096)
        rows.append(
            _row(
                "submit_batch_blob",
                _messages()["submit_batch"],
                big_iters,
                spool=spool,
            )
        )
    return rows


def _archive(rows: list[dict], quick: bool) -> None:
    record(
        "wire",
        rows,
        columns=[
            "message", "iterations", "v1_rps", "v2_rps",
            "codec_speedup", "bytes_v1", "bytes_v2", "bytes_ratio",
        ],
        title="Wire codec round-trips: JSON-lines v1 vs binary v2",
        quick=quick,
    )
    payload = {
        "benchmark": "wire",
        "quick": quick,
        "rows": rows,
        "acceptance": {
            "minima": [
                {
                    "metric": "codec_speedup",
                    "where": {"message": "submit_batch"},
                    "min": 4.0,
                },
                {
                    "metric": "codec_speedup",
                    "where": {"message": "batch_reply"},
                    "min": 1.2,
                },
                {
                    "metric": "bytes_ratio",
                    "where": {"message": "submit_batch"},
                    "min": 2.0,
                },
            ],
            "enforced": not quick,
        },
    }
    write_payload(payload)


def _assert_bars(rows: list[dict], quick: bool) -> None:
    by_name = {row["message"]: row for row in rows}
    blob = by_name["submit_batch_blob"]
    # the blob reference must be dramatically smaller than any inline
    # framing of the same matrix — that is its whole point
    assert blob["bytes_v2"] < by_name["submit_batch"]["bytes_v2"] / 10
    if quick:
        assert all(row["v2_rps"] > 0 for row in rows)
        return
    assert by_name["submit_batch"]["codec_speedup"] >= 4.0
    assert by_name["batch_reply"]["codec_speedup"] >= 1.2
    assert by_name["submit_batch"]["bytes_ratio"] >= 2.0


def test_wire(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rows = benchmark.pedantic(run, args=(quick,), rounds=1, iterations=1)
    _archive(rows, quick)
    _assert_bars(rows, quick)


if __name__ == "__main__":
    quick_mode = "--quick" in sys.argv or bool(os.environ.get("BENCH_QUICK"))
    result_rows = run(quick=quick_mode)
    _archive(result_rows, quick_mode)
    _assert_bars(result_rows, quick_mode)
