"""Unit tests for the write-ahead log and recovery."""

from __future__ import annotations

import os

import pytest

from repro.errors import RecordNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile, Rid
from repro.storage.wal import (
    ABORT_END,
    BEGIN,
    COMMIT,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    LogManager,
    LogRecord,
    recover,
)


@pytest.fixture
def log(tmp_path):
    manager = LogManager(tmp_path / "wal.log")
    yield manager
    manager.close()


def _env(tmp_path):
    disk = DiskManager(tmp_path / "data.odb")
    pool = BufferPool(disk)
    heaps: dict[int, HeapFile] = {}

    def resolver(file_id: int) -> HeapFile:
        if file_id not in heaps:
            heaps[file_id] = HeapFile(file_id, disk, pool, known_pages=[])
        return heaps[file_id]

    return disk, pool, resolver


def test_append_flush_read_roundtrip(log):
    records = [
        LogRecord(BEGIN, 1),
        LogRecord(OP_INSERT, 1, 2, 5, 0, b"\x00payload", b""),
        LogRecord(COMMIT, 1),
    ]
    for rec in records:
        log.append(rec)
    log.flush()
    assert list(log.records()) == records


def test_unflushed_records_invisible(log):
    log.append(LogRecord(BEGIN, 1))
    assert list(log.records()) == []  # durable view only
    log.flush()
    assert len(list(log.records())) == 1


def test_truncate_discards_everything(log):
    log.append(LogRecord(BEGIN, 1))
    log.flush()
    log.truncate()
    assert list(log.records()) == []
    assert log.size() == 0


def test_torn_tail_is_ignored(tmp_path):
    log = LogManager(tmp_path / "wal.log")
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(COMMIT, 1))
    log.flush()
    log.close()
    # Corrupt the tail: chop off the last 3 bytes.
    path = tmp_path / "wal.log"
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    log2 = LogManager(path)
    records = list(log2.records())
    assert len(records) == 1
    assert records[0].kind == BEGIN
    log2.close()


def test_corrupt_crc_stops_replay(tmp_path):
    log = LogManager(tmp_path / "wal.log")
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(COMMIT, 1))
    log.flush()
    log.close()
    path = tmp_path / "wal.log"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a bit in the last record body
    path.write_bytes(bytes(data))
    log2 = LogManager(path)
    assert len(list(log2.records())) == 1
    log2.close()


def test_persists_across_reopen(tmp_path):
    log = LogManager(tmp_path / "wal.log")
    log.append(LogRecord(BEGIN, 9))
    log.flush()
    log.close()
    log2 = LogManager(tmp_path / "wal.log")
    assert [r.txid for r in log2.records()] == [9]
    log2.close()


def test_recover_replays_committed_ops(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00committed", b""))
    log.append(LogRecord(COMMIT, 1))
    log.flush()
    report = recover(log, resolver)
    assert report.ops_replayed == 1
    assert report.loser_txids == ()
    assert resolver(2).read(Rid(3, 0)) == b"committed"
    disk.close()


def test_recover_undoes_loser_insert(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00loser", b""))
    # no COMMIT: txn 1 is a loser
    log.flush()
    report = recover(log, resolver)
    assert report.loser_txids == (1,)
    assert report.ops_undone == 1
    with pytest.raises(RecordNotFoundError):
        resolver(2).read(Rid(3, 0))
    disk.close()


def test_recover_undoes_loser_update(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00original", b""))
    log.append(LogRecord(COMMIT, 1))
    log.append(LogRecord(BEGIN, 2))
    log.append(LogRecord(OP_UPDATE, 2, 2, 3, 0, b"\x00dirty", b"\x00original"))
    log.flush()
    recover(log, resolver)
    assert resolver(2).read(Rid(3, 0)) == b"original"
    disk.close()


def test_recover_undoes_loser_delete(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00keep-me", b""))
    log.append(LogRecord(COMMIT, 1))
    log.append(LogRecord(BEGIN, 2))
    log.append(LogRecord(OP_DELETE, 2, 2, 3, 0, b"", b"\x00keep-me"))
    log.flush()
    recover(log, resolver)
    assert resolver(2).read(Rid(3, 0)) == b"keep-me"
    disk.close()


def test_recover_respects_abort_end(tmp_path, log):
    """A transaction that aborted cleanly (logged CLRs) is not a loser."""
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00temp", b""))
    # compensation op + abort end (what Transaction.abort writes)
    log.append(LogRecord(OP_DELETE, 1, 2, 3, 0, b"", b"\x00temp"))
    log.append(LogRecord(ABORT_END, 1))
    log.flush()
    report = recover(log, resolver)
    assert report.loser_txids == ()
    with pytest.raises(RecordNotFoundError):
        resolver(2).read(Rid(3, 0))
    disk.close()


def test_recover_is_idempotent(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00twice", b""))
    log.append(LogRecord(COMMIT, 1))
    log.flush()
    recover(log, resolver)
    recover(log, resolver)  # replaying again must not corrupt
    assert resolver(2).read(Rid(3, 0)) == b"twice"
    disk.close()


def test_recover_interleaved_transactions(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(BEGIN, 2))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00from-t1", b""))
    log.append(LogRecord(OP_INSERT, 2, 2, 3, 1, b"\x00from-t2", b""))
    log.append(LogRecord(COMMIT, 2))
    # t1 never commits
    log.flush()
    report = recover(log, resolver)
    assert report.loser_txids == (1,)
    heap = resolver(2)
    with pytest.raises(RecordNotFoundError):
        heap.read(Rid(3, 0))
    assert heap.read(Rid(3, 1)) == b"from-t2"
    disk.close()


def test_last_writer_wins_per_rid(tmp_path, log):
    disk, pool, resolver = _env(tmp_path)
    log.append(LogRecord(BEGIN, 1))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00v1", b""))
    log.append(LogRecord(OP_UPDATE, 1, 2, 3, 0, b"\x00v2", b"\x00v1"))
    log.append(LogRecord(OP_DELETE, 1, 2, 3, 0, b"", b"\x00v2"))
    log.append(LogRecord(OP_INSERT, 1, 2, 3, 0, b"\x00v3", b""))
    log.append(LogRecord(COMMIT, 1))
    log.flush()
    recover(log, resolver)
    assert resolver(2).read(Rid(3, 0)) == b"v3"
    disk.close()


def test_log_record_codec_roundtrip():
    rec = LogRecord(OP_UPDATE, 42, 7, 88, 3, b"new", b"old")
    assert LogRecord.from_bytes(rec.to_bytes()) == rec


def test_flush_count_increments(log):
    before = log.flush_count
    log.flush()
    assert log.flush_count == before + 1


def test_the_log_knows_its_own_end(tmp_path, monkeypatch):
    """``size()`` is the durable end the log keeps itself -- no stat per
    commit -- and a failed write's truncate-back leaves it in place."""
    from repro import probe
    from repro.storage.faults import FaultInjector, FaultPlan, InjectedFaultError

    path = tmp_path / "wal.log"
    log = LogManager(path)
    real_getsize = os.path.getsize
    monkeypatch.setattr(os.path, "getsize", lambda _p: pytest.fail("size() stats the file"))
    log.append(LogRecord(BEGIN, 1))
    assert log.size() == 0  # the unflushed buffer does not count
    log.flush()
    durable = log.size()
    assert durable == real_getsize(path) > 0
    probe.attach(FaultInjector(FaultPlan().short_write("wal.flush.write", hit=1, keep=3)))
    try:
        log.append(LogRecord(COMMIT, 1))
        with pytest.raises(InjectedFaultError):
            log.flush()
    finally:
        probe.detach()
    assert log.size() == durable == real_getsize(path)
    log.flush()  # the retry writes the kept buffer from the same offset
    assert log.size() == real_getsize(path) > durable
    assert [r.kind for r in log.records()] == [BEGIN, COMMIT]
    log.close()
    reopened = LogManager(path)
    assert reopened.size() == real_getsize(path)
    reopened.truncate()
    assert reopened.size() == 0
    reopened.close()
