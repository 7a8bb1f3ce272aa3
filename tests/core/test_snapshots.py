"""Lock-free snapshot reads: isolation, immutability, and non-blocking.

The load-bearing test is :func:`test_snapshot_reads_take_no_locks`, the
PR's acceptance criterion: a thread holding an EXCLUSIVE object lock, the
storage mutex, AND a versions-heap write stripe cannot stop a snapshot
reader from completing a materialize and a full history traversal.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Database, StoragePolicy
from repro.errors import DanglingReferenceError, ReadOnlySnapshotError
from repro.core.identity import Oid, Vid
from repro.storage.blobs import BlobStore
from tests.conftest import Doc, Part


# -- visibility ---------------------------------------------------------------


def test_snapshot_sees_committed_state(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    with any_db.snapshot() as snap:
        bound = snap.deref(ref.oid)
        assert bound.name == "bolt"
        assert bound.weight == 10
        assert snap.object_exists(ref.oid)
        assert snap.latest_vid(ref.oid) == any_db.latest_vid(ref.oid)


def test_snapshot_invisible_overwrite(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    with any_db.snapshot() as snap:
        ref.weight = 99  # autocommit in-place update after the pin
        assert ref.weight == 99
        assert snap.deref(ref.oid).weight == 10


def test_snapshot_invisible_newversion(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    v1 = any_db.latest_vid(ref.oid)
    with any_db.snapshot() as snap:
        any_db.newversion(ref)
        ref.weight = 77
        assert snap.latest_vid(ref.oid) == v1
        assert snap.deref(ref.oid).weight == 10
        assert snap.version_count(ref) == 1
        assert any_db.version_count(ref) == 2


def test_snapshot_invisible_pdelete(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    keep = any_db.pnew(Part("nut", 5))
    with any_db.snapshot() as snap:
        any_db.pdelete(ref)
        assert not any_db.object_exists(ref.oid)
        # The pinned snapshot still reads every version of the dead object.
        assert snap.object_exists(ref.oid)
        assert snap.deref(ref.oid).weight == 10
        names = sorted(p.name for p in snap.cluster(Part))
        assert names == ["bolt", "nut"]
    assert sorted(p.name for p in any_db.cluster(Part)) == ["nut"]
    assert keep.name == "nut"


def test_snapshot_invisible_version_delete(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    v2 = any_db.newversion(ref)
    v2.weight = 20
    with any_db.snapshot() as snap:
        any_db.pdelete(v2)
        assert snap.version_exists(v2.vid)
        assert snap.deref(v2.vid).weight == 20
        assert snap.version_count(ref) == 2
        assert any_db.version_count(ref) == 1


def test_snapshot_never_sees_uncommitted(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    with any_db.transaction():
        ref.weight = 55
        other = any_db.pnew(Part("wip", 1))
        # Pinned mid-transaction: only committed state is visible.
        with any_db.snapshot() as snap:
            assert snap.deref(ref.oid).weight == 10
            assert not snap.object_exists(other.oid)
    # After commit, a fresh snapshot sees both.
    with any_db.snapshot() as snap:
        assert snap.deref(ref.oid).weight == 55
        assert snap.object_exists(other.oid)


def test_snapshot_survives_abort(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    snap = any_db.snapshot()
    try:
        with pytest.raises(RuntimeError):
            with any_db.transaction():
                ref.weight = 55
                raise RuntimeError("boom")
        assert snap.deref(ref.oid).weight == 10
        assert ref.weight == 10
    finally:
        snap.close()


def test_snapshot_traversals_frozen(any_db):
    ref = any_db.pnew(Doc("a"))
    v1 = any_db.latest_vid(ref.oid)
    v2 = any_db.newversion(ref)
    with any_db.snapshot() as snap:
        v3_live = any_db.newversion(v2)
        history = snap.history(v2.vid)
        assert [v.vid.serial for v in history] == [2, 1]
        assert snap.dnext(v1) and snap.dnext(v1)[0].vid == v2.vid
        assert snap.dnext(v2.vid) == []  # v3 is after the pin
        assert snap.tnext(v2.vid) is None
        assert [v.vid.serial for v in snap.versions(ref.oid)] == [1, 2]
        assert [v.vid.serial for v in snap.leaves(ref.oid)] == [2]
    assert any_db.version_exists(v3_live.vid)


def test_snapshot_query_and_indexes(any_db):
    any_db.create_index(Part, "weight")
    refs = [any_db.pnew(Part(f"p{i}", i % 3)) for i in range(9)]
    with any_db.snapshot() as snap:
        # Diverge the live state from the snapshot in both directions.
        refs[0].weight = 2  # was 0: leaves the weight=0 index bucket
        refs[1].weight = 0  # was 1: enters the weight=0 index bucket
        any_db.pdelete(refs[2])  # was 2

        from repro.core.indexes import attr_equals

        snap_zero = {p.name for p in snap.query(Part).suchthat(attr_equals("weight", 0))}
        live_zero = {p.name for p in any_db.query(Part).suchthat(attr_equals("weight", 0))}
        assert snap_zero == {"p0", "p3", "p6"}
        assert live_zero == {"p1", "p3", "p6"}
        # Deleted object still visible through the snapshot scan.
        assert {p.name for p in snap.query(Part).suchthat(lambda p: p.weight == 2)} == {
            "p2",
            "p5",
            "p8",
        }


# -- read-only enforcement -----------------------------------------------------


def test_snapshot_rejects_writes(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    with any_db.snapshot() as snap:
        bound = snap.deref(ref.oid)
        with pytest.raises(ReadOnlySnapshotError):
            bound.weight = 5
        with pytest.raises(ReadOnlySnapshotError):
            snap.pnew(Part("new", 1))
        with pytest.raises(ReadOnlySnapshotError):
            snap.newversion(bound)
        with pytest.raises(ReadOnlySnapshotError):
            snap.pdelete(bound)
        with pytest.raises(ReadOnlySnapshotError):
            bound.reweigh(5)  # mutating method: write-back must fail
        # Pure reads through the bound ref still work afterwards.
        assert bound.weight == 10


def test_snapshot_read_transaction(any_db):
    ref = any_db.pnew(Part("bolt", 10))
    with any_db.transaction(snapshot_reads=True) as txn:
        assert txn.read_only
        assert txn.snapshot is not None
        assert ref.weight == 10  # routed through the pinned snapshot
        assert [v.vid.serial for v in any_db.versions(ref)] == [1]
        assert {p.name for p in any_db.query(Part)} == {"bolt"}
        with pytest.raises(ReadOnlySnapshotError):
            ref.weight = 5
        with pytest.raises(ReadOnlySnapshotError):
            any_db.pnew(Part("x", 1))
    # The transaction finished: its snapshot was unpinned.
    assert any_db.stats()["snap.pinned"] == 0
    # And the thread is usable for ordinary transactions again.
    with any_db.transaction():
        ref.weight = 11
    assert ref.weight == 11


def test_snapshot_read_transaction_takes_no_object_locks(db):
    ref = db.pnew(Part("bolt", 10))
    db.newversion(ref)
    before = db.stats()["locks.acquires"]
    with db.transaction(snapshot_reads=True):
        assert ref.weight == 10
        db.history(db.latest_vid(ref.oid))
        list(db.query(Part))
    assert db.stats()["locks.acquires"] == before


def test_snapshot_isolation_is_stable_across_writer_commits(any_db):
    ref = any_db.pnew(Part("bolt", 0))
    with any_db.transaction(snapshot_reads=True):
        first = ref.weight
        done = threading.Event()

        def writer():
            with any_db.transaction():
                bound = any_db.deref(ref.oid)
                bound.weight = 123
            done.set()

        t = threading.Thread(target=writer)
        t.start()
        assert done.wait(10)
        t.join()
        # Repeatable read: the committed write stays invisible.
        assert ref.weight == first == 0
    assert ref.weight == 123


# -- lifecycle & counters ------------------------------------------------------


def test_snapshot_counters_and_reclamation(any_db):
    any_db.pnew(Part("bolt", 1))
    stats = any_db.stats()
    assert stats["snap.pinned"] == 0
    epoch = stats["snap.epoch"]
    assert epoch >= 1  # open + the pnew commit both published
    s1 = any_db.snapshot()
    s2 = any_db.snapshot()
    assert any_db.stats()["snap.pinned"] == 2
    assert s1.pinned and s2.pinned
    s1.close()
    s1.close()  # idempotent
    s2.close()
    stats = any_db.stats()
    assert stats["snap.pinned"] == 0
    assert stats["snap.reclaimed"] >= 2
    assert stats["snap.pins"] >= 2


def test_epochs_are_monotonic(any_db):
    epochs = [any_db.stats()["snap.epoch"]]
    ref = any_db.pnew(Part("bolt", 1))
    epochs.append(any_db.stats()["snap.epoch"])
    ref.weight = 2
    epochs.append(any_db.stats()["snap.epoch"])
    any_db.newversion(ref)
    epochs.append(any_db.stats()["snap.epoch"])
    assert epochs == sorted(epochs)
    assert epochs[-1] > epochs[0]


def test_lockfree_hits_counted(any_db):
    ref = any_db.pnew(Part("bolt", 1))
    with any_db.snapshot() as snap:
        snap.deref(ref.oid).weight
    assert any_db.stats()["snap.lockfree_hits"] > 0


def test_snapshot_ref_equality_across_bindings(any_db):
    ref = any_db.pnew(Part("bolt", 1))
    with any_db.snapshot() as snap:
        assert snap.deref(ref.oid) == ref  # same store, same oid


def test_snapshot_dangling_reference_reporting(any_db):
    ref = any_db.pnew(Part("bolt", 1))
    any_db.pdelete(ref)
    with any_db.snapshot() as snap:
        with pytest.raises(DanglingReferenceError):
            snap.latest_vid(ref.oid)
        with pytest.raises(DanglingReferenceError):
            snap.materialize(Vid(ref.oid, 1))


def test_snapshot_object_count_and_all_objects(any_db):
    refs = [any_db.pnew(Part(f"p{i}", i)) for i in range(4)]
    with any_db.snapshot() as snap:
        any_db.pdelete(refs[0])
        any_db.pnew(Part("late", 9))
        assert snap.object_count() == 4
        assert {r.oid for r in snap.all_objects()} == {r.oid for r in refs}
        assert any_db.object_count() == 4  # 4 - 1 deleted + 1 new


def test_snapshot_write_back_heavy_rewrites(any_db):
    """Deep delta chains: the snapshot keeps materializing every version
    while the live chain is rewritten underneath it."""
    ref = any_db.pnew(Doc("v1 " * 50))
    vrefs = [any_db.latest_vid(ref.oid)]
    for i in range(2, 10):
        v = any_db.newversion(ref)
        v.text = f"v{i} " * 50
        vrefs.append(v.vid)
    with any_db.snapshot() as snap:
        # Rewrite the middle of the chain (rebases delta children) and
        # delete a version (splices + rebases) after the pin.
        any_db.deref(vrefs[4]).text = "rewritten " * 60
        any_db.pdelete(vrefs[6])
        for i, vid in enumerate(vrefs, start=1):
            assert snap.deref(vid).text == f"v{i} " * 50
    assert any_db.deref(vrefs[4]).text == "rewritten " * 60


# -- the fill fence: a snapshot's cache fill never outlives a racing commit -----


def _commit_inside_next_blob_read(monkeypatch, commit) -> None:
    """Run ``commit`` once, inside the next payload read: after the reader
    fetched the record (and found no stash for it), before it fills a
    shared cache with what it read."""
    real_get = BlobStore.get
    pending = [commit]

    def get(self, key):
        content = real_get(self, key)
        if pending:
            pending.pop()()
        return content

    monkeypatch.setattr(BlobStore, "get", get)


def test_bytes_fill_racing_an_in_place_commit_is_not_served_stale(
    tmp_path, monkeypatch
):
    """The snapshot correctly returns the old body; live readers and later
    snapshots must see the new one (the snapshot used to cache the old
    body after the writer had cached the new one, until a reopen)."""
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Doc("old" * 700))  # blob-backed, not inline
        vid = db.latest_vid(ref.oid)
        with db.snapshot() as snap:
            db.store._bytes_cache.clear()
            _commit_inside_next_blob_read(
                monkeypatch, lambda: db.write_version(vid, Doc("new" * 700))
            )
            assert snap.materialize(vid).text == "old" * 700
        assert db.materialize(vid).text == "new" * 700
        with db.snapshot() as fresh:
            assert fresh.materialize(vid).text == "new" * 700
    finally:
        db.close()


def test_decoded_fill_racing_an_in_place_commit_is_not_served_stale(
    tmp_path, monkeypatch
):
    """The same race on the decoded cache, which a snapshot fills for any
    version but an entry's latest."""
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Doc("old" * 700))
        old = db.latest_vid(ref.oid)
        db.newversion(ref)  # ``old`` is no longer the latest serial
        with db.snapshot() as snap:
            db.store._bytes_cache.clear()
            db.store._decoded_cache.clear()
            _commit_inside_next_blob_read(
                monkeypatch, lambda: db.write_version(old, Doc("new" * 700))
            )
            assert snap.read_attr(old, "text") == "old" * 700
        assert db.read_attr(old, "text") == "new" * 700
        with db.snapshot() as fresh:
            assert fresh.read_attr(old, "text") == "new" * 700
    finally:
        db.close()


def test_racing_snapshot_fills_never_serve_a_commit_stale(tmp_path):
    """Snapshot readers rebuild from cold caches and fill them while a
    writer rewrites versions in place: after every commit the live store
    and a fresh snapshot read what was written."""
    db = Database(tmp_path / "db", policy=StoragePolicy(kind="delta", keyframe_interval=4))
    ref = db.pnew(Doc("0" * 600))
    with db.transaction():
        for i in range(1, 4):
            db.newversion(ref).text = f"{i}" * 600
    vids = [v.vid for v in db.versions(ref)]
    stop, errors = threading.Event(), []

    def reader() -> None:
        try:
            while not stop.is_set():
                db.store._bytes_cache.clear()
                db.store._decoded_cache.clear()
                with db.snapshot() as snap:
                    for vid in vids:
                        snap.read_attr(vid, "text")
                        snap.materialize(vid)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        for n in range(120):
            vid, body = vids[n % len(vids)], f"w{n}:".ljust(600, "x")
            db.write_version(vid, Doc(body))
            assert db.materialize(vid).text == body
            assert db.read_attr(vid, "text") == body
            with db.snapshot() as fresh:
                assert fresh.materialize(vid).text == body
    finally:
        stop.set()
        for thread in readers:
            thread.join(10)
        sys.setswitchinterval(interval)
        db.close()
    assert not errors, errors
    assert not any(thread.is_alive() for thread in readers)


# -- cluster membership: maintained incrementally, O(dirty) per publish ---------


def _cluster_names(source) -> list[str]:
    return [p.name for p in source.cluster(Part)]


def test_version_only_commit_keeps_cluster_tuple(any_db):
    """newversion / in-place writes move no cluster: the published tuple
    is the very same object afterwards, not an equal rebuild."""
    refs = [any_db.pnew(Part(f"p{i}", i)) for i in range(5)]
    by_type = any_db.store._committed_by_type
    before = by_type["tests.Part"]
    epoch = any_db.stats()["snap.epoch"]
    with any_db.transaction():
        v = any_db.newversion(refs[1])
        v.weight = 100
        refs[3].weight = 300
    any_db.pdelete(v)  # one of two versions: the object stays
    assert any_db.stats()["snap.epoch"] > epoch
    assert by_type["tests.Part"] is before
    assert list(before) == [r.oid for r in refs]


def _commit_cost_in_oid_calls(db_path, objects: int, monkeypatch) -> dict[str, int]:
    """Oid hash / ordering calls made by one newversion commit."""
    db = Database(db_path, policy=StoragePolicy(kind="delta", keyframe_interval=4))
    try:
        with db.transaction():
            refs = [db.pnew(Part(f"p{i}", i)) for i in range(objects)]
        target = refs[objects // 2]
        db.newversion(target)  # warm every lazy path once
        calls = {"hash": 0, "lt": 0}
        real_hash, real_lt = Oid.__hash__, Oid.__lt__

        def counting_hash(self):
            calls["hash"] += 1
            return real_hash(self)

        def counting_lt(self, other):
            calls["lt"] += 1
            return real_lt(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(Oid, "__hash__", counting_hash)
            patch.setattr(Oid, "__lt__", counting_lt)
            with db.transaction():
                v = db.newversion(target)
                v.weight = -1
        assert db.store._committed[target.oid].latest_serial == v.vid.serial
        return calls
    finally:
        db.close()


def test_commit_work_does_not_grow_with_the_table(tmp_path, monkeypatch):
    """Counted, not timed: a commit probes and compares exactly as many
    oids at 2 000 objects as at 50 -- nothing walks the cluster."""
    small = _commit_cost_in_oid_calls(tmp_path / "small", 50, monkeypatch)
    large = _commit_cost_in_oid_calls(tmp_path / "large", 2000, monkeypatch)
    assert large == small
    assert small["lt"] == 0  # no dataclass-comparison sort on the path


def test_membership_changes_spare_a_pinned_snapshot(any_db):
    refs = [any_db.pnew(Part(f"p{i}", i)) for i in range(4)]
    with any_db.snapshot() as pinned:
        late = any_db.pnew(Part("late", 9))
        any_db.pdelete(refs[0])  # whole object
        any_db.pdelete(any_db.latest_vid(refs[2].oid))  # its last version
        assert _cluster_names(pinned) == ["p0", "p1", "p2", "p3"]
        assert pinned.cluster_names() == ["tests.Part"]
        with any_db.snapshot() as fresh:
            assert _cluster_names(fresh) == ["p1", "p3", "late"]
            assert [r.oid for r in fresh.cluster(Part)] == [
                refs[1].oid, refs[3].oid, late.oid
            ]
    assert list(any_db.store._committed_by_type["tests.Part"]) == [
        refs[1].oid, refs[3].oid, late.oid
    ]


def test_membership_of_an_active_transaction_is_held_back(any_db):
    """A concurrent transaction's created / deleted objects stay out of
    (resp. in) the published cluster until *its* commit -- and an oid
    committed after a larger one still lands in oid order."""
    keep, doomed = any_db.pnew(Part("keep", 1)), any_db.pnew(Part("doomed", 2))
    other = any_db.session("other")
    with other.activate():
        txn = any_db.begin()
        wip = any_db.pnew(Part("wip", 3))
        any_db.pdelete(doomed)
    newer = any_db.pnew(Part("newer", 4))  # commits (and publishes) first
    assert wip.oid < newer.oid
    with any_db.snapshot() as snap:
        assert _cluster_names(snap) == ["keep", "doomed", "newer"]
        assert not snap.object_exists(wip.oid)
    with other.activate():
        txn.commit()
    other.close()
    with any_db.snapshot() as snap:
        assert [r.oid for r in snap.cluster(Part)] == [keep.oid, wip.oid, newer.oid]


def test_membership_after_abort_full_republish(any_db):
    keep, doomed = any_db.pnew(Part("keep", 1)), any_db.pnew(Part("doomed", 2))
    before = any_db.store._committed_by_type["tests.Part"]
    with any_db.snapshot() as pinned:
        with pytest.raises(RuntimeError):
            with any_db.transaction():
                any_db.pnew(Part("never", 3))
                any_db.pdelete(doomed)
                raise RuntimeError("boom")
        # The abort restores the objects it touched and republishes
        # them: nothing was created or deleted, so nothing moved.
        assert any_db.store._committed_by_type["tests.Part"] is before
        assert _cluster_names(pinned) == ["keep", "doomed"]
    with any_db.snapshot() as snap:
        assert _cluster_names(snap) == ["keep", "doomed"]
        assert snap.deref(doomed.oid).weight == 2
    assert keep.weight == 1


# -- the acceptance criterion --------------------------------------------------


def test_snapshot_reads_take_no_locks(db):
    """A snapshot reader completes materialize + full history while another
    thread holds an EXCLUSIVE object lock, the storage mutex, AND a
    versions-heap write stripe -- i.e. the read path provably acquires
    neither the storage mutex nor SHARED locks nor page stripes on the
    writer's page."""
    ref = db.pnew(Part("bolt", 1))
    for _ in range(5):
        db.newversion(ref)
    vid = db.latest_vid(ref.oid)

    writer_ready = threading.Event()
    reader_go = threading.Event()
    reader_done = threading.Event()
    release_writer = threading.Event()
    failures: list[BaseException] = []

    def writer():
        try:
            with db.transaction():
                bound = db.deref(ref.oid)
                bound.weight = 999  # X lock held until the txn ends
                # Find the page holding the latest version record and grab
                # its write stripe, plus the storage mutex: everything the
                # locked read path would need.
                entry = db.store._table[ref.oid]
                _kind, page_id, _slot = entry.graph.node(vid.serial).data
                stripe = db.page_locks.lock_for(page_id)
                with db._storage_mutex:
                    with stripe:
                        writer_ready.set()
                        if not release_writer.wait(10):
                            raise TimeoutError("reader never finished")
        except BaseException as exc:  # pragma: no cover - failure reporting
            failures.append(exc)
            writer_ready.set()

    def reader():
        try:
            assert reader_go.wait(10)
            with db.snapshot() as snap:
                obj = snap.materialize(snap.latest_vid(ref.oid))
                assert obj.weight == 1  # pre-transaction committed value
                history = snap.history(snap.latest_vid(ref.oid))
                assert len(history) == 6
                for v in history:
                    assert snap.deref(v.vid).weight == 1
            reader_done.set()
        except BaseException as exc:  # pragma: no cover - failure reporting
            failures.append(exc)

    wt = threading.Thread(target=writer)
    rt = threading.Thread(target=reader)
    wt.start()
    rt.start()
    assert writer_ready.wait(10)
    assert not failures, failures
    # Writer is now parked holding the X lock, the storage mutex and the
    # stripe; everything acquired from here on is the reader's doing.
    lock_acquires_before = db.stats()["locks.acquires"]
    reader_go.set()
    # The reader must finish WHILE the writer still holds everything.
    assert reader_done.wait(5), "snapshot reader blocked behind the writer"
    # The snapshot reads took no lock-manager locks at all.
    assert db.stats()["locks.acquires"] == lock_acquires_before
    release_writer.set()
    wt.join(10)
    rt.join(10)
    assert not failures, failures
    assert ref.weight == 999
