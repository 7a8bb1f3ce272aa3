"""Crash-recovery integration tests.

A "crash" is simulated by abandoning a Database without close() (so dirty
pages and the checkpoint never happen) and reopening the directory -- the
WAL replay path must reconstruct exactly the committed state.
"""

from __future__ import annotations

import os

from repro import Database, StoragePolicy
from tests.conftest import Doc, Part


def crash(db: Database) -> None:
    """Abandon the database exactly as a process crash would.

    Drops the in-memory pool without flushing; the data file keeps only
    what eviction happened to write, the WAL keeps everything committed.
    """
    # Nothing to do: just stop using the object.  The files on disk are in
    # whatever state the WAL-before-data discipline left them.


def test_committed_work_survives_crash(tmp_path):
    db = Database(tmp_path / "c1")
    ref = db.pnew(Part("survivor", 1))
    v2 = db.newversion(ref)
    v2.weight = 2
    oid = ref.oid
    crash(db)

    db2 = Database(tmp_path / "c1")
    assert db2.last_recovery is not None
    ref2 = db2.deref(oid)
    assert ref2.weight == 2
    assert db2.version_count(ref2) == 2
    db2.close()


def test_uncommitted_transaction_rolled_back_on_recovery(tmp_path):
    db = Database(tmp_path / "c2")
    ref = db.pnew(Part("base", 1))
    oid = ref.oid
    txn = db.begin()
    db.newversion(ref)
    ref.weight = 99
    # Force the partial transaction's log records to disk WITHOUT commit,
    # then crash: recovery must treat it as a loser.
    db._log.flush()
    crash(db)

    db2 = Database(tmp_path / "c2")
    assert db2.last_recovery.loser_txids != ()
    ref2 = db2.deref(oid)
    assert ref2.weight == 1
    assert db2.version_count(ref2) == 1
    db2.close()


def test_crash_after_checkpoint(tmp_path):
    db = Database(tmp_path / "c3")
    a = db.pnew(Part("pre", 1))
    db.checkpoint()
    b = db.pnew(Part("post", 2))
    oids = (a.oid, b.oid)
    crash(db)

    db2 = Database(tmp_path / "c3")
    assert db2.deref(oids[0]).weight == 1
    assert db2.deref(oids[1]).weight == 2
    db2.close()


def test_crash_with_deletions(tmp_path):
    db = Database(tmp_path / "c4")
    keep = db.pnew(Part("keep", 1))
    gone = db.pnew(Part("gone", 2))
    v2 = db.newversion(keep)
    v2.weight = 10
    db.pdelete(gone)
    db.pdelete(db.versions(keep)[0])  # delete the first version too
    oids = (keep.oid, gone.oid)
    crash(db)

    db2 = Database(tmp_path / "c4")
    keep2 = db2.deref(oids[0])
    assert keep2.is_alive()
    assert keep2.weight == 10
    assert db2.version_count(keep2) == 1
    assert not db2.deref(oids[1]).is_alive()
    db2.close()


def test_repeated_crashes(tmp_path):
    """Crash, recover, mutate, crash again -- state accumulates correctly."""
    path = tmp_path / "c5"
    oid = None
    for round_number in range(5):
        db = Database(path)
        if oid is None:
            oid = db.pnew(Part("multi", 0)).oid
        ref = db.deref(oid)
        v = db.newversion(ref)
        v.weight = round_number + 1
        crash(db)
    db = Database(path)
    ref = db.deref(oid)
    assert ref.weight == 5
    assert db.version_count(ref) == 5 + 1
    assert [v.weight for v in db.versions(ref)] == [0, 1, 2, 3, 4, 5]
    db.close()


def test_crash_with_large_spanning_objects(tmp_path):
    db = Database(tmp_path / "c6")
    big = "payload " * 4000  # ~32 KiB, over a page: a blob pack frame
    ref = db.pnew(Doc(big))
    v2 = db.newversion(ref)
    v2.text = big + "END"
    oid = ref.oid
    crash(db)

    db2 = Database(tmp_path / "c6")
    assert db2.deref(oid).text == big + "END"
    db2.close()


def test_crash_with_delta_storage(tmp_path):
    policy = StoragePolicy(kind="delta", keyframe_interval=4)
    db = Database(tmp_path / "c7", policy=policy)
    ref = db.pnew(Doc("delta base " * 100))
    for i in range(10):
        v = db.newversion(ref)
        v.text = v.text + f" rev{i}"
    oid = ref.oid
    crash(db)

    db2 = Database(tmp_path / "c7", policy=policy)
    ref2 = db2.deref(oid)
    assert ref2.text.endswith("rev9")
    assert db2.version_count(ref2) == 11
    db2.close()


def test_crash_preserves_counters(tmp_path):
    """Oids allocated after recovery must not collide with pre-crash ones."""
    db = Database(tmp_path / "c8")
    first = db.pnew(Part("a", 1)).oid
    crash(db)
    db2 = Database(tmp_path / "c8")
    second = db2.pnew(Part("b", 2)).oid
    assert second != first
    assert second.value > first.value
    db2.close()


def test_recovery_then_clean_close_then_reopen(tmp_path):
    path = tmp_path / "c9"
    db = Database(path)
    oid = db.pnew(Part("cycle", 7)).oid
    crash(db)
    db2 = Database(path)
    assert db2.deref(oid).weight == 7
    db2.close()  # clean close truncates the WAL
    db3 = Database(path)
    assert db3.last_recovery is None  # nothing to replay
    assert db3.deref(oid).weight == 7
    db3.close()


def test_wal_empty_after_clean_close(tmp_path):
    path = tmp_path / "c10"
    db = Database(path)
    db.pnew(Part("w", 1))
    db.close()
    assert os.path.getsize(path / "wal.log") == 0


def test_crash_during_many_small_transactions(tmp_path):
    db = Database(tmp_path / "c11")
    oids = [db.pnew(Part(f"p{i}", i)).oid for i in range(100)]
    crash(db)
    db2 = Database(tmp_path / "c11")
    for i, oid in enumerate(oids):
        assert db2.deref(oid).weight == i
    assert db2.object_count() == 100
    db2.close()


def test_graph_invariants_hold_after_recovery(tmp_path):
    from repro.workloads.synthetic import make_random_tree

    db = Database(tmp_path / "c12")
    ref, _versions = make_random_tree(db, 25, seed=11)
    oid = ref.oid
    crash(db)
    db2 = Database(tmp_path / "c12")
    graph = db2.graph(db2.deref(oid))
    graph.validate()
    assert len(graph) == 25
    db2.close()
