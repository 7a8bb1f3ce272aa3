"""Property tests of WAL record framing and decoding.

Every record kind round-trips through ``append`` -> ``flush`` ->
``records()``; a damaged log -- truncated anywhere, one bit flipped, or
followed by garbage -- replays exactly the frames in front of the first
bad one (an empty frame, which a zeroed tail reads as, is bad too); and
an arbitrary file never makes replay raise anything but
:class:`~repro.errors.WalError`, which only a crc-valid body this log
could not have written reaches.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WalError
from repro.storage import wal
from repro.storage.wal import LogManager, LogRecord

KINDS = (
    wal.BEGIN,
    wal.COMMIT,
    wal.ABORT_END,
    wal.OP_INSERT,
    wal.OP_UPDATE,
    wal.OP_DELETE,
    wal.PREPARE,
    wal.COORD_COMMIT,
    wal.COORD_END,
    wal.GC_TOMBSTONE,
    wal.PAYLOAD,
)
_FRAME = struct.Struct("<II")

ids = st.integers(0, 2**64)
records = st.builds(
    LogRecord,
    kind=st.sampled_from(KINDS),
    txid=ids,
    file_id=ids,
    page_id=ids,
    slot=ids,
    payload=st.binary(max_size=700),
    undo_payload=st.binary(max_size=64),
)


def _replay(data: bytes) -> list[LogRecord]:
    """``records()`` of a log file holding exactly ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wal.log")
        with open(path, "wb") as fh:
            fh.write(data)
        log = LogManager(path)
        try:
            return list(log.records())
        finally:
            log.close(flush=False)


def _frames(recs: list[LogRecord]) -> tuple[bytes, list[int]]:
    """The log bytes of ``recs`` and the end offset of each frame."""
    data, ends = bytearray(), []
    for rec in recs:
        body = rec.to_bytes()
        data += _FRAME.pack(len(body), zlib.crc32(body)) + body
        ends.append(len(data))
    return bytes(data), ends


@given(st.lists(st.lists(records, max_size=6), max_size=5))
def test_every_kind_round_trips_through_append_flush_records(groups):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wal.log")
        log = LogManager(path)
        written: list[LogRecord] = []
        for group in groups:  # one flush per group
            for rec in group:
                log.append(rec)
            log.flush()
            written += group
        assert list(log.records()) == written
        assert log.size() == os.path.getsize(path)
        assert log.payload_records == sum(r.kind == wal.PAYLOAD for r in written)
        log.close()
        reopened = LogManager(path)
        assert list(reopened.records()) == written
        assert reopened.size() == os.path.getsize(path)
        reopened.close(flush=False)


@given(st.lists(records, min_size=1, max_size=8), st.data())
def test_a_damaged_log_replays_the_frames_before_the_damage(recs, data):
    log, ends = _frames(recs)
    damage = data.draw(st.sampled_from(["truncate", "flip", "garbage"]))
    if damage == "truncate":
        at = data.draw(st.integers(0, len(log)))
        damaged = log[:at]
    elif damage == "flip":
        at = data.draw(st.integers(0, len(log) - 1))
        bit = data.draw(st.integers(0, 7))
        damaged = log[:at] + bytes([log[at] ^ (1 << bit)]) + log[at + 1 :]
    else:
        at = len(log) + 1
        damaged = log + data.draw(st.binary(min_size=1, max_size=64))
    intact = sum(1 for end in ends if end <= at)
    replayed = _replay(damaged)
    if damage == "garbage":
        assert replayed[:intact] == recs  # garbage forms no crc-valid frame
    else:
        assert replayed == recs[:intact]


@given(st.binary(max_size=512))
def test_arbitrary_bytes_replay_only_crc_valid_frames(data):
    """No exception but ``WalError``, and every record yielded decodes
    from a frame whose crc matched, in order, from the start."""
    valid: list[bytes] = []
    pos = 0
    while pos + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, pos)
        body = data[pos + _FRAME.size : pos + _FRAME.size + length]
        if not length or len(body) != length or zlib.crc32(body) != crc:
            break  # a zeroed tail reads as empty frames: none is a record
        valid.append(body)
        pos += _FRAME.size + length
    replayed: list[LogRecord] = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "wal.log")
            with open(path, "wb") as fh:
                fh.write(data)
            log = LogManager(path)
            try:
                for rec in log.records():
                    replayed.append(rec)
            finally:
                log.close(flush=False)
    except WalError:
        # Only a crc-valid frame the codec rejects stops replay by raising.
        assert len(replayed) < len(valid)
    assert replayed == [LogRecord.from_bytes(body) for body in valid[: len(replayed)]]


@given(st.binary(max_size=256))
def test_a_crc_valid_body_decodes_or_raises_wal_error(body):
    """A frame whose crc matches but whose body no ``to_bytes`` wrote: the
    codec may reject it any way it likes, replay raises ``WalError``."""
    frame = _FRAME.pack(len(body), zlib.crc32(body)) + body
    try:
        replayed = _replay(frame)
    except WalError:
        return
    if not body:
        assert replayed == []  # an empty frame ends replay
    else:
        assert len(replayed) == 1 and LogRecord.from_bytes(body) == replayed[0]
