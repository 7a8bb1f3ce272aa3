"""Graceful degradation: a persistently failing disk flips the database
to read-only instead of corrupting it or crashing the process.

A one-shot I/O error is a retryable hiccup; ``DEGRADE_AFTER`` (3)
*consecutive* failures mean the storage is gone for good.  From that point reads and
version traversal must keep serving from memory while every write raises
:class:`~repro.errors.DatabaseDegradedError`.
"""

from __future__ import annotations

import pytest

from repro import Database, probe
from repro.errors import DatabaseDegradedError
from repro.storage.faults import FaultInjector, FaultPlan, InjectedFaultError

from tests.conftest import Part


@pytest.fixture(autouse=True)
def _clean_injector():
    probe.detach()
    yield
    probe.detach()


def _hammer_until_degraded(db, ref, tries=10):
    """Keep writing until the failure threshold trips."""
    for _ in range(tries):
        if db.degraded:
            return
        with pytest.raises((InjectedFaultError, DatabaseDegradedError)):
            ref.weight = ref.weight + 1
    assert db.degraded, "database never degraded"


def test_persistent_wal_fsync_failure_enters_degraded_mode(tmp_path):
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Part("gear", 5))
        ref.weight = 6  # healthy write, durably committed
        probe.attach(
            FaultInjector(FaultPlan().fsync_error("wal.flush.fsync", hit=1, persistent=True))
        )
        _hammer_until_degraded(db, ref)

        # -- reads keep working ------------------------------------------
        assert ref.weight == 6
        assert ref.name == "gear"
        assert db.version_count(ref) == 1
        assert db.versions(ref)
        assert db.object_count() == 1
        assert [r.oid for r in db.cluster(Part)] == [ref.oid]

        # -- every write surface refuses --------------------------------
        with pytest.raises(DatabaseDegradedError):
            ref.weight = 99
        with pytest.raises(DatabaseDegradedError):
            db.pnew(Part("new", 1))
        with pytest.raises(DatabaseDegradedError):
            db.newversion(ref)
        with pytest.raises(DatabaseDegradedError):
            db.begin()
        with pytest.raises(DatabaseDegradedError):
            db.checkpoint()
        with pytest.raises(DatabaseDegradedError):
            db.run_transaction(lambda: None)

        # -- the stats surface tells the operator why --------------------
        stats = db.stats()
        assert stats["degraded"] is True
        assert "consecutive" in stats["degraded.reason"]
        assert stats["wal.write_failures"] >= 3
        assert db.degraded_reason == stats["degraded.reason"]
    finally:
        db.close()  # must not raise despite the dead disk


def test_one_shot_fsync_error_does_not_degrade(tmp_path):
    """Below the threshold, failures are transient: a later write heals."""
    with Database(tmp_path / "db") as db:
        ref = db.pnew(Part("gear", 1))
        probe.attach(FaultInjector(FaultPlan().fsync_error("wal.flush.fsync", hit=1)))
        with pytest.raises(InjectedFaultError):
            ref.weight = 2
        assert not db.degraded
        ref.weight = 3  # the disk recovered; the success resets the count
        assert ref.weight == 3
        assert not db.degraded
        assert db.stats()["degraded"] is False


def test_degraded_close_and_reopen_preserve_durable_state(tmp_path):
    """Everything acknowledged before the disk died survives reopen."""
    db = Database(tmp_path / "db")
    ref = db.pnew(Part("gear", 5))
    ref.weight = 7
    oid = ref.oid
    probe.attach(
        FaultInjector(FaultPlan().fsync_error("wal.flush.fsync", hit=1, persistent=True))
    )
    _hammer_until_degraded(db, ref)
    db.close()

    probe.detach()  # the "disk" works again on the next open
    with Database(tmp_path / "db") as db2:
        again = db2.deref(oid)
        assert again.weight == 7
        assert not db2.degraded
        again.weight = 8  # fully writable again
        assert again.weight == 8


def test_persistent_data_file_sync_failure_degrades(tmp_path):
    """The data-file path (checkpoint fsync) trips degradation too."""
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Part("gear", 1))
        probe.attach(
            FaultInjector(FaultPlan().fsync_error("disk.sync.fsync", hit=1, persistent=True))
        )
        for _ in range(6):
            if db.degraded:
                break
            with pytest.raises((InjectedFaultError, DatabaseDegradedError)):
                db.checkpoint()
        assert db.degraded
        assert "data-file" in db.degraded_reason
        assert ref.weight == 1  # reads still fine
        with pytest.raises(DatabaseDegradedError):
            ref.weight = 2
    finally:
        db.close()


def test_failed_pack_sync_fails_the_checkpoint_not_the_commit(tmp_path):
    """No commit forces a pack: the log carries the payload until the
    write-back syncs the packs and truncates it.  A failed pack fsync
    fails that checkpoint and leaves the log in place -- once is a
    hiccup a retry heals, persistently it is a dead disk like any other."""
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Part("g" * 600, 5))  # a payload large enough for a pack
        probe.attach(FaultInjector(FaultPlan().fsync_error("blobs.sync.fsync", hit=1)))
        db.pnew(Part("h" * 600, 6))  # the commit does not touch the pack fsync
        assert db.stats()["blobs.unsynced_bytes"] > 0
        with pytest.raises(InjectedFaultError):
            db.checkpoint()
        stats = db.stats()
        assert stats["wal.bytes"] > 0 and stats["disk.write_failures"] == 1
        assert not db.degraded
        db.checkpoint()
        assert db.stats()["wal.bytes"] == 0 and db.stats()["blobs.unsynced_bytes"] == 0
        ref.name = "i" * 600
        probe.detach()
        probe.attach(
            FaultInjector(FaultPlan().fsync_error("blobs.sync.fsync", hit=1, persistent=True))
        )
        for _ in range(6):
            if db.degraded:
                break
            with pytest.raises(InjectedFaultError):
                db.checkpoint()
        assert db.degraded and "pack fsync" in db.degraded_reason
        assert ref.name == "i" * 600
    finally:
        db.close()
    probe.detach()
    with Database(tmp_path / "db") as db2:
        assert db2.last_recovery.payloads_redone == 1
        assert db2.deref(ref.oid).name == "i" * 600
