"""Group-commit linger and failed-write regression tests for the WAL.

Two bugs fixed together:

* the group-commit linger window was charged to *solo* committers too --
  a lone transaction paid the full window on every flush even though no
  other flusher could ever arrive to share the fsync;
* a failed frame write left a partial frame in the file while the flush
  buffer was restored for retry, so the retried (complete) frames landed
  *after* garbage and replay stopped at the tear -- silently losing
  acknowledged records.  The flush path now truncates the file back to
  the pre-write offset before restoring the buffer.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.storage import blobs as blobstore
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedFaultError
from repro.storage.wal import BEGIN, COMMIT, OP_INSERT, LogManager, LogRecord


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.deactivate()
    yield
    faults.deactivate()


def test_solo_commit_pays_no_linger_tax(tmp_path):
    """A lone flusher must not wait out the group-commit window."""
    window = 0.05
    log = LogManager(tmp_path / "wal.log", group_window=window)
    try:
        n = 10
        start = time.monotonic()
        for i in range(1, n + 1):
            log.append(LogRecord(BEGIN, i))
            log.append(LogRecord(COMMIT, i))
            log.flush()
        elapsed = time.monotonic() - start
        assert elapsed < n * window * 0.5, (
            f"{n} solo commits took {elapsed:.3f}s -- the linger window "
            f"({window}s) is being charged to lone flushers"
        )
    finally:
        log.close()


def test_concurrent_flushers_share_fsyncs(tmp_path):
    """With many concurrent committers the window must batch fsyncs."""
    log = LogManager(tmp_path / "wal.log", group_window=0.05)
    try:
        n = 8
        barrier = threading.Barrier(n)

        def committer(txid: int) -> None:
            barrier.wait()
            log.append(LogRecord(BEGIN, txid))
            log.append(LogRecord(COMMIT, txid))
            log.flush()

        threads = [
            threading.Thread(target=committer, args=(i,)) for i in range(1, n + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert log.flush_count < n, (
            f"{n} concurrent commits used {log.flush_count} fsyncs -- "
            f"group commit is not batching"
        )
        assert sum(1 for _ in log.records()) == 2 * n
    finally:
        log.close()


def test_failed_write_leaves_log_replayable(tmp_path):
    """After a short write, the retried flush must produce a clean log."""
    path = tmp_path / "wal.log"
    log = LogManager(path)
    try:
        log.append(LogRecord(BEGIN, 1))
        log.append(LogRecord(OP_INSERT, 1, 2, 5, 0, b"\x00payload", b""))
        log.append(LogRecord(COMMIT, 1))
        faults.activate(FaultPlan().short_write("wal.flush.write", keep=9))
        with pytest.raises(InjectedFaultError):
            log.flush()
        faults.deactivate()
        # The buffer was preserved; the retry must write *only* complete
        # frames (no garbage prefix from the failed attempt).
        log.flush()
        kinds = [record.kind for record in log.records()]
        assert kinds == [BEGIN, OP_INSERT, COMMIT]
    finally:
        log.close()
    # A fresh manager (recovery's view) reads the same records.
    log2 = LogManager(path)
    try:
        kinds = [record.kind for record in log2.records()]
        assert kinds == [BEGIN, OP_INSERT, COMMIT]
    finally:
        log2.close()


def test_failed_write_then_more_appends(tmp_path):
    """Records appended after a failed flush survive alongside the retry."""
    log = LogManager(tmp_path / "wal.log")
    try:
        log.append(LogRecord(BEGIN, 1))
        faults.activate(FaultPlan().short_write("wal.flush.write", keep=3))
        with pytest.raises(InjectedFaultError):
            log.flush()
        faults.deactivate()
        log.append(LogRecord(COMMIT, 1))
        log.flush()
        kinds = [record.kind for record in log.records()]
        assert kinds == [BEGIN, COMMIT]
    finally:
        log.close()


def test_no_reference_is_durable_before_its_payload_under_group_commit(
    tmp_path, monkeypatch
):
    """Payload -> log: the leader fixes the records it covers *before* it
    syncs the packs.  A follower that stores a payload and appends the
    record referencing it while the leader's pack fsync is in flight is
    therefore left for the next flush -- checked by intercepting both
    fsyncs: at every completed log fsync, each reference in the log file
    points into pack bytes a completed pack fsync already covered."""
    store = blobstore.BlobStore(tmp_path / "blobs")
    log = LogManager(tmp_path / "wal.log")
    log.before_write = store.sync
    in_pack_fsync, resume = threading.Event(), threading.Event()
    pack_synced = [0]
    wal_fsyncs: list[int] = []

    def fsync(fd: int) -> None:
        target = os.readlink(f"/proc/self/fd/{fd}")
        if "pack-" in target:
            covered = os.fstat(fd).st_size
            if not in_pack_fsync.is_set():
                in_pack_fsync.set()
                assert resume.wait(10.0)
            pack_synced[0] = covered
        elif target.endswith("wal.log"):
            refs = [r.payload for r in log_records(target) if r.kind == OP_INSERT]
            for ref in refs:
                key, size = blobstore.decode_ref(ref)
                _pack, offset, _size = store._index[key]
                assert offset + 8 + size <= pack_synced[0], (
                    "a reference reached the log ahead of its payload"
                )
            wal_fsyncs.append(len(refs))

    def log_records(path: str):
        reader = LogManager(path)
        try:
            return list(reader.records())
        finally:
            reader._file.close()

    def commit(txid: int, body: bytes) -> None:
        key = store.put(body)
        log.append(LogRecord(BEGIN, txid))
        log.append(
            LogRecord(OP_INSERT, txid, 2, 5, txid, blobstore.encode_ref(key, len(body)))
        )
        log.append(LogRecord(COMMIT, txid))
        log.flush()

    monkeypatch.setattr(os, "fsync", fsync)
    leader = threading.Thread(target=commit, args=(1, b"L" * 900))
    follower = threading.Thread(target=commit, args=(2, b"F" * 900))
    leader.start()
    assert in_pack_fsync.wait(10.0)
    follower.start()  # put + append + flush: parks behind the leader's flush
    deadline = time.monotonic() + 10.0
    while log._pending_flushers < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    resume.set()
    leader.join(10.0)
    follower.join(10.0)
    assert not leader.is_alive() and not follower.is_alive()
    assert wal_fsyncs == [1, 2]  # the follower's record waited for its own flush
    assert store.stats.syncs == 2
    log.close()
    store.close()
