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

from repro import probe
from repro.storage import blobs as blobstore
from repro.storage.faults import FaultInjector, FaultPlan, InjectedFaultError
from repro.storage.wal import BEGIN, COMMIT, OP_INSERT, PAYLOAD, LogManager, LogRecord


@pytest.fixture(autouse=True)
def _clean_injector():
    probe.detach()
    yield
    probe.detach()


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
        probe.attach(FaultInjector(FaultPlan().short_write("wal.flush.write", keep=9)))
        with pytest.raises(InjectedFaultError):
            log.flush()
        probe.detach()
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
        probe.attach(FaultInjector(FaultPlan().short_write("wal.flush.write", keep=3)))
        with pytest.raises(InjectedFaultError):
            log.flush()
        probe.detach()
        log.append(LogRecord(COMMIT, 1))
        log.flush()
        kinds = [record.kind for record in log.records()]
        assert kinds == [BEGIN, COMMIT]
    finally:
        log.close()


def test_no_reference_is_durable_before_its_payload_under_group_commit(
    tmp_path, monkeypatch
):
    """The payload rides in the log: a put that appends a frame logs the
    body as a ``PAYLOAD`` record first, under the store lock.  A second
    transaction storing the same content while the first is still inside
    its put waits for that record, so its reference -- flushed by its own
    commit before the first transaction commits -- never reaches the log
    ahead of the payload.  Checked at every log fsync; no pack is forced.
    Log the payload after releasing the store lock and this fails."""
    store = blobstore.BlobStore(tmp_path / "blobs")
    log = LogManager(tmp_path / "wal.log")
    parked, resume = threading.Event(), threading.Event()
    references: list[int] = []

    def fsync(fd: int) -> None:
        target = os.readlink(f"/proc/self/fd/{fd}")
        assert "pack-" not in target, "a commit forced a pack"
        if target.endswith("wal.log"):
            logged: set[str] = set()
            for record in log_records(target):
                if record.kind == PAYLOAD:
                    logged.add(blobstore.blob_key(record.payload))
                elif record.kind == OP_INSERT:
                    key, _size = blobstore.decode_ref(record.payload)
                    assert key in logged, "a reference reached the log ahead of its payload"
                    references.append(record.txid)

    def log_records(path: str):
        reader = LogManager(path)
        try:
            return list(reader.records())
        finally:
            reader._file.close()

    def commit(txid: int, body: bytes) -> None:
        def log_payload(content: bytes) -> None:
            if txid == 1:
                parked.set()
                assert resume.wait(10.0)
            log.append(LogRecord(PAYLOAD, txid, payload=content))

        log.append(LogRecord(BEGIN, txid))
        key = store.put(body, log_payload)
        log.append(
            LogRecord(OP_INSERT, txid, 2, 5, txid, blobstore.encode_ref(key, len(body)))
        )
        log.append(LogRecord(COMMIT, txid))
        log.flush()

    monkeypatch.setattr(os, "fsync", fsync)
    first = threading.Thread(target=commit, args=(1, b"P" * 900))
    second = threading.Thread(target=commit, args=(2, b"P" * 900))
    first.start()
    assert parked.wait(10.0)  # inside its put, the frame not yet appended
    second.start()  # the same content: its put dedups once it gets the lock
    time.sleep(0.1)
    resume.set()
    first.join(10.0)
    second.join(10.0)
    assert not first.is_alive() and not second.is_alive()
    assert store.stats.dedup_hits == 1 and store.stats.syncs == 0
    assert sorted(set(references)) == [1, 2]
    log.close()
    store.close()


def test_covered_waiter_returns_while_the_next_flush_is_in_flight(
    tmp_path, monkeypatch
):
    """A flusher parked behind an fsync that covers its record returns once
    that fsync completes, even if the leader has started its next flush
    before the waiter runs again.  It used to re-check only after the
    in-flight flag dropped, so it slept through that flush as well, and
    through every later one while the leader kept committing."""
    log = LogManager(tmp_path / "wal.log")
    gates = [threading.Event(), threading.Event()]
    in_fsync = [threading.Event(), threading.Event()]
    fsyncs = []
    real_fsync, real_wait = os.fsync, log._cond.wait
    parked = threading.Event()

    def fsync(fd: int) -> None:
        n = len(fsyncs)
        fsyncs.append(fd)
        if n < len(gates):  # the leader's two flushes
            in_fsync[n].set()
            assert gates[n].wait(10.0)
        real_fsync(fd)

    def wait(timeout=None):
        if threading.current_thread() is not waiter:
            return real_wait(timeout)
        # Not scheduled again until the leader's next flush is in flight.
        parked.set()
        real_wait(0.01)
        while not in_fsync[1].is_set():
            real_wait(0.01)
        return True

    def leader() -> None:
        log.flush()  # covers the waiter's record
        log.append(LogRecord(COMMIT, 1))
        log.flush()

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(log._cond, "wait", wait)
    log.append(LogRecord(BEGIN, 1))
    lead = threading.Thread(target=leader)
    waiter = threading.Thread(target=log.flush)
    try:
        lead.start()
        assert in_fsync[0].wait(10.0)
        waiter.start()
        assert parked.wait(10.0)
        gates[0].set()
        assert in_fsync[1].wait(10.0)
        waiter.join(5.0)
        assert not waiter.is_alive(), "a covered waiter slept through the next flush"
        assert log.group_piggybacks == 1 and log.flushed_seq == 1
    finally:
        gates[0].set()
        gates[1].set()
        lead.join(10.0)
        waiter.join(10.0)
        log.close()
