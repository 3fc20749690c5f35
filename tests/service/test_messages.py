"""The typed messages: readdressing, list normalization, the kind
registry, and typed errors across the wire codec."""

import dataclasses

import pytest

from repro.errors import (
    AdmissionError,
    OverloadError,
    ServiceError,
    SessionError,
)
from repro.service import messages as msg
from repro.service import wire

EXAMPLES = [
    msg.RegisterTopology(parents=(-1, 0, 0, 1, 1)),
    msg.OpenSession(
        topology_id="abc123", k=3, planner="lp-no-lf", budget_mj=75.5,
        window_capacity=10, replan_every=4, track_truth=False,
    ),
    msg.FeedSample(session_id="s0001", readings=(1.0, 2.5, -3.75)),
    msg.SubmitQuery(session_id="s0001", readings=(0.5, 0.25, 0.125)),
    msg.StepEpoch(session_id="s0002", readings=(9.0, 8.0, 7.0)),
    msg.GetPlan(session_id="s0001"),
    msg.CloseSession(session_id="s0001"),
    msg.GetStats(),
    msg.TopologyRegistered(topology_id="abc123", num_nodes=5),
    msg.SessionOpened(
        session_id="s0001", topology_id="abc123", planner="lp-lf"
    ),
    msg.SampleAccepted(session_id="s0001", window_size=4),
    msg.QueryReply(
        session_id="s0001", nodes=(3, 1), values=(9.5, 7.25),
        energy_mj=12.5, accuracy=0.5,
    ),
    msg.QueryReply(session_id="s0001", accuracy=None),
    msg.StepReply(
        session_id="s0001", epoch=7, action="query", energy_mj=3.5,
        nodes=(2,), values=(4.5,), accuracy=1.0,
    ),
    msg.StepReply(session_id="s0001", epoch=8, action="sample"),
    msg.PlanReply(
        session_id="s0001",
        plan={"format_version": 1, "bandwidths": {"1": 2}},
    ),
    msg.SessionClosed(session_id="s0001", epochs=9, total_energy_mj=101.5),
    msg.StatsReply(
        sessions_open=2, sessions_total=5, topologies=1,
        counters={"cache": {"hits": 3}},
    ),
    msg.ErrorReply(error="OverloadError", message="shed"),
]


@pytest.mark.parametrize(
    "message",
    [m for m in EXAMPLES if hasattr(m, "session_id")],
    ids=lambda m: type(m).__name__,
)
def test_with_session_id_matches_replace(message):
    readdressed = msg.with_session_id(message, "w3/s0009")
    assert readdressed == dataclasses.replace(message, session_id="w3/s0009")
    assert type(readdressed) is type(message)
    assert message.session_id != "w3/s0009"  # the original is untouched


def test_sequence_fields_normalize_to_tuples():
    built = msg.FeedSample(session_id="s1", readings=[1.0, 2.0])
    assert built.readings == (1.0, 2.0)
    assert isinstance(built.readings, tuple)
    batch = msg.SubmitBatch(session_id="s1", readings=[[1.0, 2.0], [3.0, 4.0]])
    assert batch.readings == ((1.0, 2.0), (3.0, 4.0))
    assert all(isinstance(row, tuple) for row in batch.readings)
    # so a message built from lists equals what the wire decodes
    for message in (built, batch):
        decoded, __ = wire.decode_frame(wire.encode_frame(message)[4:])
        assert decoded == message


def test_kinds_registry_is_total():
    assert set(msg.MESSAGE_KINDS) >= msg.REQUEST_KINDS
    for kind, cls in msg.MESSAGE_KINDS.items():
        assert cls.kind == kind


@pytest.mark.parametrize(
    "error",
    [
        ServiceError("base"),
        SessionError("gone"),
        AdmissionError("full"),
        OverloadError("shed"),
    ],
)
def test_typed_errors_survive_the_wire(error):
    reply = msg.error_to_reply(error)
    decoded, __ = wire.decode_frame(wire.encode_frame(reply)[4:])
    revived = msg.error_from_reply(decoded)
    assert type(revived) is type(error)
    assert str(revived) == str(error)


def test_unknown_error_name_degrades_to_service_error():
    for name in ("FutureFancyError", "annotations"):
        # "annotations" is an attribute of repro.errors, not an exception
        frame = wire.encode_frame(msg.ErrorReply(error=name, message="hm"))
        decoded, __ = wire.decode_frame(frame[4:])
        revived = msg.error_from_reply(decoded)
        assert type(revived) is ServiceError
        assert str(revived) == "hm"
