"""Unit tests for the database facade lifecycle and misc surface."""

from __future__ import annotations

import pytest

from repro import Database, StoragePolicy
from repro.core.identity import Oid
from repro.errors import TransactionStateError
from tests.conftest import Part


def test_context_manager_closes(tmp_path):
    with Database(tmp_path / "cm") as db:
        ref = db.pnew(Part("x", 1))
        oid = ref.oid
    with Database(tmp_path / "cm") as db:
        assert db.deref(oid).weight == 1


def test_close_is_idempotent(tmp_path):
    db = Database(tmp_path / "idem")
    db.close()
    db.close()


def test_persistence_of_everything(tmp_path):
    path = tmp_path / "persist"
    with Database(path) as db:
        ref = db.pnew(Part("gear", 1))
        v2 = db.newversion(ref)
        v2.weight = 2
        variant = db.newversion(ref.pin() if False else db.versions(ref)[0])
        variant.weight = 3
        oid = ref.oid
    with Database(path) as db:
        ref = db.deref(oid)
        assert db.version_count(ref) == 3
        assert ref.weight == 3  # variant is temporally latest
        assert [v.weight for v in db.versions(ref)] == [1, 2, 3]
        graph = db.graph(ref)
        graph.validate()
        assert graph.dnext(1) == [2, 3]


def test_oid_counter_survives_reopen(tmp_path):
    path = tmp_path / "ids"
    with Database(path) as db:
        first = db.pnew(Part("a", 1)).oid
    with Database(path) as db:
        second = db.pnew(Part("b", 2)).oid
    assert second.value > first.value


def test_deref_type_check(db):
    with pytest.raises(TypeError):
        db.deref("not an id")


def test_checkpoint_truncates_wal(db):
    db.pnew(Part("w", 1))
    assert db.stats()["wal.bytes"] > 0
    db.checkpoint()
    assert db.stats()["wal.bytes"] == 0


def test_checkpoint_rejected_during_txn(db):
    db.begin()
    db.pnew(Part("t", 1))
    with pytest.raises(TransactionStateError):
        db.checkpoint()
    db.current_transaction().commit()
    db.checkpoint()


def test_auto_checkpoint_threshold(tmp_path):
    db = Database(tmp_path / "auto", checkpoint_threshold=2048)
    for i in range(50):
        db.pnew(Part(f"p{i}", i))
    # WAL must have been truncated at least once by the auto checkpoint.
    assert db.stats()["wal.bytes"] < 50 * 200
    # And everything is still there.
    assert db.query(Part).count() == 50
    db.close()


def test_stats_shape(db):
    db.pnew(Part("s", 1))
    stats = db.stats()
    for key in (
        "objects",
        "pool.hits",
        "pool.misses",
        "pool.evictions",
        "wal.bytes",
        "wal.flushes",
        "disk.pages",
    ):
        assert key in stats
    assert stats["objects"] == 1


def test_small_buffer_pool_still_correct(tmp_path):
    """With a tiny pool, evictions happen constantly; results must not change.

    Payload bytes live in the blob store (content-addressed), so the heap
    records themselves are small; the unique per-object names below keep
    enough distinct object-table and version-index records to overflow an
    8-page pool anyway.
    """
    db = Database(tmp_path / "tiny", pool_size=8)
    refs = [db.pnew(Part(f"p{i}" + "x" * 500, i)) for i in range(400)]
    for ref in refs[::3]:
        v = db.newversion(ref)
        v.weight = v.weight + 1000
    for i, ref in enumerate(refs):
        expected = i + 1000 if i % 3 == 0 else i
        assert ref.weight == expected
    assert db.stats()["pool.evictions"] > 0
    db.close()


def test_delta_policy_database_roundtrip(tmp_path):
    path = tmp_path / "delta"
    policy = StoragePolicy(kind="delta", keyframe_interval=4)
    with Database(path, policy=policy) as db:
        ref = db.pnew(Part("d", 0))
        for i in range(12):
            v = db.newversion(ref)
            v.weight = i + 1
        oid = ref.oid
    with Database(path, policy=policy) as db:
        ref = db.deref(oid)
        assert [v.weight for v in db.versions(ref)] == list(range(13))


def test_cluster_names(db):
    db.pnew(Part("p", 1))
    assert "tests.Part" in db.cluster_names()


def test_fresh_database_is_empty(db):
    assert db.object_count() == 0
    assert db.cluster(Part) == []


def test_deref_unknown_oid_fails_on_access(db):
    ghost = db.deref(Oid(424242))
    assert not ghost.is_alive()
