"""Framing edge cases: the wire protocol must survive a hostile stream.

The :class:`~repro.net.protocol.FrameDecoder` sits between the transport
and the kernel on both ends; these tests feed it the pathological
deliveries a real byte stream produces -- one byte at a time, many
frames per chunk, truncation, garbage -- and the attacks a hostile peer
can mount (wrong magic, absurd declared lengths, trailing junk).
"""

from __future__ import annotations

import pytest

from repro.core.identity import Oid, Vid
from repro.errors import (
    DeadlockError,
    FrameTooLargeError,
    ProtocolError,
    RemoteError,
)
from repro.net import protocol
from repro.net.protocol import FrameDecoder

PAYLOADS = [
    None,
    0,
    -17,
    3.5,
    True,
    "hello",
    b"\x00\xff bytes",
    [1, "two", None],
    ("a", 2, None),
    {"snapshot_reads": True, "n": 3},
    Oid(42),
    Vid(Oid(7), 3),
    (Oid(9), "attr"),
]


def frames_of(chunks: bytes, **kwargs) -> list[tuple[int, int, object]]:
    decoder = FrameDecoder(**kwargs)
    return list(decoder.feed(chunks))


# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize("payload", PAYLOADS, ids=repr)
def test_frame_round_trip(payload):
    wire = protocol.build_frame(protocol.OP_READ, 123, payload)
    [(opcode, cid, got)] = frames_of(wire)
    assert opcode == protocol.OP_READ
    assert cid == 123
    assert got == payload


def test_build_frame_into_appends_in_place():
    buf = bytearray(b"prefix")
    protocol.build_frame_into(buf, protocol.OP_PING, 1, "x")
    protocol.build_frame_into(buf, protocol.OP_PING, 2, "y")
    assert bytes(buf[:6]) == b"prefix"
    assert [cid for _, cid, _ in frames_of(bytes(buf[6:]))] == [1, 2]


def test_build_frame_into_rolls_back_on_failure():
    buf = bytearray(b"keep")
    with pytest.raises(Exception):
        protocol.build_frame_into(buf, protocol.OP_PNEW, 1, object())
    assert buf == b"keep", "failed frame must not leave partial bytes behind"


# -- partial delivery ---------------------------------------------------------


def test_byte_at_a_time_delivery():
    """The decoder yields each frame exactly when its last byte lands."""
    wire = b"".join(
        protocol.build_frame(protocol.OP_READ, cid, {"cid": cid})
        for cid in (1, 2, 3)
    )
    decoder = FrameDecoder()
    got = []
    for i in range(len(wire)):
        got.extend(decoder.feed(wire[i : i + 1]))
    assert [(c, p["cid"]) for _, c, p in got] == [(1, 1), (2, 2), (3, 3)]
    assert decoder.pending_bytes == 0
    assert decoder.frames_in == 3


def test_many_frames_one_chunk_plus_tail():
    """A pipelined chunk yields every complete frame and buffers the tail."""
    frames = [
        protocol.build_frame(protocol.OP_WRITE, cid, (Oid(cid), "n", cid))
        for cid in range(1, 6)
    ]
    tail = frames[-1][: len(frames[-1]) // 2]
    decoder = FrameDecoder()
    got = list(decoder.feed(b"".join(frames[:4]) + tail))
    assert [cid for _, cid, _ in got] == [1, 2, 3, 4]
    assert decoder.pending_bytes == len(tail)
    # The rest of the split frame completes it.
    [(_, cid, payload)] = list(decoder.feed(frames[-1][len(tail) :]))
    assert cid == 5 and payload == (Oid(5), "n", 5)


def test_partial_frame_never_yields():
    wire = protocol.build_frame(protocol.OP_PING, 1, "x" * 100)
    decoder = FrameDecoder()
    assert list(decoder.feed(wire[:-1])) == []
    assert decoder.pending_bytes == len(wire) - 1


# -- hostile input ------------------------------------------------------------


def test_garbage_magic_rejected_before_full_frame():
    """Wrong magic fails as soon as those two bytes arrive -- the decoder
    never waits for (or buffers) a payload that claims to be huge."""
    bad = bytes([100, 0, 0, 0]) + b"XX"  # declares 100 bytes, magic "XX"
    with pytest.raises(ProtocolError, match="bad magic"):
        frames_of(bad)


def test_garbage_stream_rejected():
    with pytest.raises(ProtocolError):
        frames_of(b"GET / HTTP/1.1\r\n\r\n")


def test_oversized_declaration_rejected_before_payload():
    """A hostile length field fails from the header alone."""
    header = (10 * 1024 * 1024).to_bytes(4, "little")
    with pytest.raises(FrameTooLargeError, match="declared"):
        frames_of(header, max_frame=1024)


def test_oversized_outgoing_frame_rejected():
    with pytest.raises(FrameTooLargeError):
        protocol.build_frame(
            protocol.OP_PNEW, 1, b"x" * (protocol.MAX_FRAME_BYTES + 1)
        )


def test_too_short_body_rejected():
    wire = bytes([2, 0, 0, 0]) + protocol.build_frame(protocol.OP_PING, 1, None)[4:6]
    with pytest.raises(ProtocolError, match="too short"):
        frames_of(wire)


def test_trailing_bytes_rejected():
    good = protocol.build_frame(protocol.OP_PING, 1, "x")
    length = int.from_bytes(good[:4], "little")
    padded = (length + 2).to_bytes(4, "little") + good[4:] + b"!!"
    with pytest.raises(ProtocolError, match="trailing"):
        frames_of(padded)


def test_truncated_payload_rejected():
    """A frame whose declared length cuts the codec body short."""
    good = protocol.build_frame(protocol.OP_PING, 1, "hello world")
    length = int.from_bytes(good[:4], "little")
    clipped = (length - 4).to_bytes(4, "little") + good[4:-4]
    with pytest.raises(ProtocolError, match="malformed ping frame"):
        frames_of(clipped)


def test_frames_before_the_bad_one_still_yield():
    """Valid frames ahead of the poison frame are delivered first."""
    good = protocol.build_frame(protocol.OP_PING, 7, "ok")
    decoder = FrameDecoder()
    stream = decoder.feed(good + b"\xff\xff\xff\xff")
    assert next(stream)[1] == 7
    with pytest.raises((ProtocolError, FrameTooLargeError)):
        list(stream)


# -- the error envelope -------------------------------------------------------


def test_error_envelope_round_trips_known_class():
    payload = protocol.error_payload(DeadlockError("victim of cycle"))
    wire = protocol.build_frame(protocol.RESP_ERR, 5, payload)
    [(opcode, cid, got)] = frames_of(wire)
    assert opcode == protocol.RESP_ERR and cid == 5
    with pytest.raises(DeadlockError, match="victim of cycle"):
        protocol.raise_remote(got)


def test_unknown_error_class_becomes_remote_error():
    with pytest.raises(RemoteError, match="boom"):
        protocol.raise_remote({"error": "SomethingElseEntirely", "message": "boom"})


def test_malformed_error_payload_becomes_remote_error():
    with pytest.raises(RemoteError):
        protocol.raise_remote("not an envelope")


def test_non_ode_exception_name_is_not_instantiated():
    """A hostile envelope naming a non-OdeError class must not summon it."""
    with pytest.raises(RemoteError):
        protocol.raise_remote({"error": "SystemExit", "message": "0"})
