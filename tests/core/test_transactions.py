"""Unit tests for transactions and locking."""

from __future__ import annotations

import contextlib
import shutil
import threading

import pytest

from repro import Database, probe
from repro.errors import (
    LockTimeoutError,
    TransactionAborted,
    TransactionStateError,
)
from repro.core.transactions import EXCLUSIVE, SHARED, LockManager
from repro.storage import blobs as blobstore
from repro.storage import serialization
from repro.tools.check import check_database
from tests.conftest import Doc, Part


# -- lock manager -----------------------------------------------------------


def test_shared_locks_compatible():
    locks = LockManager(timeout=0.2)
    locks.acquire(1, "r", SHARED)
    locks.acquire(2, "r", SHARED)
    assert locks.held(1) == {"r": SHARED}
    assert locks.held(2) == {"r": SHARED}


def test_exclusive_blocks_shared():
    locks = LockManager(timeout=0.1)
    locks.acquire(1, "r", EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        locks.acquire(2, "r", SHARED)


def test_shared_blocks_exclusive():
    locks = LockManager(timeout=0.1)
    locks.acquire(1, "r", SHARED)
    with pytest.raises(LockTimeoutError):
        locks.acquire(2, "r", EXCLUSIVE)


def test_reacquire_is_noop():
    locks = LockManager(timeout=0.1)
    locks.acquire(1, "r", EXCLUSIVE)
    locks.acquire(1, "r", EXCLUSIVE)
    locks.acquire(1, "r", SHARED)  # downgrade request absorbed by X
    assert locks.held(1) == {"r": EXCLUSIVE}


def test_upgrade_when_sole_holder():
    locks = LockManager(timeout=0.1)
    locks.acquire(1, "r", SHARED)
    locks.acquire(1, "r", EXCLUSIVE)
    assert locks.held(1) == {"r": EXCLUSIVE}


def test_upgrade_blocked_by_other_sharer():
    locks = LockManager(timeout=0.1)
    locks.acquire(1, "r", SHARED)
    locks.acquire(2, "r", SHARED)
    with pytest.raises(LockTimeoutError):
        locks.acquire(1, "r", EXCLUSIVE)


def test_release_all_wakes_waiters():
    locks = LockManager(timeout=2.0)
    locks.acquire(1, "r", EXCLUSIVE)
    acquired = threading.Event()

    def waiter():
        locks.acquire(2, "r", EXCLUSIVE)
        acquired.set()

    thread = threading.Thread(target=waiter)
    thread.start()
    locks.release_all(1)
    assert acquired.wait(2.0)
    thread.join()


def test_locks_on_distinct_resources_independent():
    locks = LockManager(timeout=0.1)
    locks.acquire(1, "a", EXCLUSIVE)
    locks.acquire(2, "b", EXCLUSIVE)  # no conflict


def test_invalid_mode_rejected():
    locks = LockManager()
    with pytest.raises(ValueError):
        locks.acquire(1, "r", "banana")


# -- transactions over the database -------------------------------------------


def test_commit_makes_changes_visible(db):
    with db.transaction():
        ref = db.pnew(Part("txn", 1))
    assert ref.weight == 1


def test_abort_rolls_back_pnew(db):
    before = db.object_count()
    try:
        with db.transaction():
            db.pnew(Part("doomed", 1))
            raise RuntimeError("force abort")
    except RuntimeError:
        pass
    assert db.object_count() == before


def test_abort_rolls_back_newversion(db):
    ref = db.pnew(Part("stable", 1))
    try:
        with db.transaction():
            v = db.newversion(ref)
            v.weight = 99
            raise RuntimeError("force abort")
    except RuntimeError:
        pass
    assert db.version_count(ref) == 1
    assert ref.weight == 1


def test_abort_rolls_back_update(db):
    ref = db.pnew(Part("stable", 1))
    try:
        with db.transaction():
            ref.weight = 42
            raise RuntimeError("force abort")
    except RuntimeError:
        pass
    assert ref.weight == 1


def test_abort_rolls_back_pdelete(db):
    ref = db.pnew(Part("phoenix", 7))
    v2 = db.newversion(ref)
    v2.weight = 8
    try:
        with db.transaction():
            db.pdelete(ref)
            raise RuntimeError("force abort")
    except RuntimeError:
        pass
    assert ref.is_alive()
    assert ref.weight == 8
    assert db.version_count(ref) == 2


def test_abort_keeps_a_concurrent_commits_blob_reference(db):
    """The deterministic core of the test_shard_chaos reattach flake.

    Blob refcount records are shared by every object with equal content
    and no lock covers a key.  T1 is the first to store some content
    (inserts the key's record), T2 stores the same content in another
    object and commits, T1 aborts: its physical undo deletes the record
    T2's reference counts on.  Unrepaired, the abort's orphan sweep then
    unlinks the content T2 committed, and the next rewrite of T2's object
    raises "blob refcount underflow".
    """
    a, b = db.pnew(Part("a", 100)), db.pnew(Part("b", 100))
    b.name = "a"  # a and b now differ only in identity: equal payloads
    t1_session = db.session("t1")
    with t1_session.activate():
        t1 = db.begin()
        db.deref(a.oid).weight = 95
    with db.transaction():
        b.weight = 95  # same bytes as T1's uncommitted version of a
    with t1_session.activate():
        t1.abort()
    t1_session.close()
    db.store._bytes_cache.clear()
    db.store._decoded_cache.clear()
    assert b.weight == 95  # the content file survived T1's orphan sweep
    assert check_database(db, strict=True).problems == []
    b.weight = 96  # releases b's reference to the shared content
    assert b.weight == 96 and a.weight == 100
    assert check_database(db, strict=True).problems == []


def _dirty_pages(db) -> list[int]:
    return [page_id for page_id, frame in db._pool._frames.items() if frame.dirty]


def test_recovery_undo_of_the_first_storer_keeps_the_committed_reference(tmp_path):
    """The crash-recovery variant of the interleaving above, on payloads
    large enough to be content files.  T1 is first to store content K and
    never commits, T2 stores K in another object and commits, the process
    dies.  Recovery undoes T1's payload record; the count is derived from
    the records that remain, so T2's reference is K's count of one -- and
    the open's load, having nothing to repair, writes nothing."""
    body, path, image = "k" * 2048, tmp_path / "db", tmp_path / "crashed"
    db = Database(path)
    a, b = db.pnew(Doc("a" * 2048)), db.pnew(Doc("b" * 2048))
    db.checkpoint()
    key = blobstore.blob_key(serialization.encode(Doc(body)))
    t1_session = db.session("t1")
    with t1_session.activate():
        db.begin()
        db.deref(a.oid).text = body
    assert db.store.blob_entries()[key] == (1, len(serialization.encode(Doc(body))))
    with db.transaction():
        b.text = body  # T2's commit flush makes T1's records durable too
    assert db.store.blob_refcount(key) == 2
    shutil.copytree(path, image)  # the machine dies here
    with Database(image) as recovered:
        assert recovered.last_recovery.loser_txids and recovered.last_recovery.ops_undone
        # Recovery flushed and truncated before the store loaded.
        assert recovered.stats()["wal.bytes"] == 0 and _dirty_pages(recovered) == []
        assert recovered.deref(b.oid).text == body
        assert recovered.deref(a.oid).text == "a" * 2048
        assert recovered.store.blob_refcount(key) == 1
        assert check_database(recovered, strict=True).problems == []
    with Database(image) as clean:  # and an open after a clean close
        assert clean.stats()["wal.bytes"] == 0 and _dirty_pages(clean) == []
        assert clean.store.blob_refcount(key) == 1
    t1_session.close()
    db.close()


def test_savepoint_rollback_onto_content_whose_first_storer_aborted(db):
    """T1 is first to store content K; T3 stores K too, sets a savepoint
    and overwrites it; T1 aborts while nothing references K.  An abort
    that unlinked its own unreferenced puts on the spot (the parent's
    ``sweep_blob_puts``) destroyed the file T3 can still roll back onto.
    A rolled-back put is a GC candidate instead, stamped at the rollback,
    and no candidate is reclaimed under a transaction that was active at
    its stamp."""
    body = "k" * 2048
    a, b = db.pnew(Doc("a" * 2048)), db.pnew(Doc("b" * 2048))
    key = blobstore.blob_key(serialization.encode(Doc(body)))
    t1_session, t3_session = db.session("t1"), db.session("t3")
    with t1_session.activate():
        t1 = db.begin()
        db.deref(a.oid).text = body
    with t3_session.activate():
        t3 = db.begin()
        db.deref(b.oid).text = body
        savepoint = db.savepoint()
        db.deref(b.oid).text = "z" * 2048
    with t1_session.activate():
        t1.abort()
    assert db.store.blob_refcount(key) == 0 and db.store.blobs.exists(key)
    assert key not in db._eligible_blob_keys(None), "T3 could still revive it"
    with t3_session.activate():
        db.rollback_to(savepoint)
        db.store._bytes_cache.clear()
        db.store._decoded_cache.clear()
        assert db.deref(b.oid).text == body
        t3.commit()
    assert db.store.blob_refcount(key) == 1
    assert check_database(db, strict=True).problems == []
    t1_session.close()
    t3_session.close()


@pytest.mark.parametrize("collect", ["reclaim_blobs", "run_gc"])
def test_reclaim_inside_a_transaction_spares_what_it_displaced(tmp_path, collect):
    """A reclaim called inside an open transaction once left that
    transaction out of the active floor: as soon as another commit moved
    the epoch on, the body its own rewrite displaced was unlinked, and
    its abort restored a record pointing at a dead frame
    (``BlobMissingError``, before and after reopen).  The caller's
    transaction counts like any other."""
    db = Database(tmp_path / "db")
    a, b = db.pnew(Doc("a" * 2048)), db.pnew(Doc("b" * 2048))
    txn = db.begin()
    a.text = "A" * 2048
    writer = threading.Thread(target=setattr, args=(b, "text", "B" * 2048))
    writer.start()
    writer.join()
    if collect == "reclaim_blobs":
        unlinked = db.reclaim_blobs()[0]
    else:
        unlinked = db.run_gc().blobs_unlinked
    assert unlinked == 0, "reclaimed under the transaction that displaced it"
    txn.abort()
    db.store._bytes_cache.clear()
    db.store._decoded_cache.clear()
    assert a.text == "a" * 2048
    assert check_database(db, strict=True).problems == []
    db.close()
    with Database(tmp_path / "db") as reopened:
        assert reopened.deref(a.oid).text == "a" * 2048
        assert reopened.deref(b.oid).text == "B" * 2048
        assert check_database(reopened, strict=True).problems == []


class _ParkAtFinish(probe.Observer):
    """Parks the thread named ``aborter`` at ``txn.finish``: its locks are
    released, its publication has not run."""

    def __init__(self) -> None:
        self.parked = threading.Event()
        self.resume = threading.Event()

    def point(self, name: str) -> None:
        if name == "txn.finish" and threading.current_thread().name == "aborter":
            self.parked.set()
            self.resume.wait(10)


@contextlib.contextmanager
def _aborted_and_parked(db, work):
    """Run ``work()`` in a transaction on another thread and abort it; the
    body runs while that thread is parked past its lock release."""
    session = db.session("aborter")

    def abort():
        with session.activate():
            txn = db.begin()
            work()
            txn.abort()
        session.close()

    observer = probe.attach(_ParkAtFinish())
    thread = threading.Thread(target=abort, name="aborter")
    thread.start()
    try:
        assert observer.parked.wait(10)
        yield
    finally:
        observer.resume.set()
        thread.join(10)
        probe.detach()
    assert not thread.is_alive()


def test_abort_restores_memory_before_it_releases_a_lock(tmp_path):
    """An abort's locks are free the moment its transaction finishes, so
    its memory must be back by then.  Restored after the release, a
    transaction taking the lock in that window read the undone write."""
    db = Database(tmp_path / "db")
    x = db.pnew(Part("x", 1))
    with _aborted_and_parked(db, lambda: setattr(x, "weight", 99)):
        with db.transaction():
            assert x.weight == 1
    assert x.weight == 1
    db.close()


def test_newversion_after_an_abort_commits_no_aborted_node(tmp_path):
    """The newversion variant: restored after the release, the second
    transaction derived serial 3 from a graph still holding the aborted
    serial 2, whose payload slot its own new record then reused -- one
    record referenced by two versions, before and after a reopen."""
    db = Database(tmp_path / "db")
    x = db.pnew(Part("x", 1))
    with _aborted_and_parked(db, lambda: setattr(db.newversion(x), "weight", 99)):
        with db.transaction():
            db.newversion(x).weight = 7

    def committed_history(opened):
        assert [(v.vid.serial, v.weight) for v in opened.versions(x.oid)] == [(1, 1), (2, 7)]
        assert check_database(opened, strict=True).problems == []

    committed_history(db)
    db.close()
    with Database(tmp_path / "db") as reopened:
        committed_history(reopened)


def _lookups_per_undo(tmp_path, objects: int) -> dict[str, int]:
    """Buffer-pool lookups (hits + misses) of one abort of each kind of
    operation, and of one ``rollback_to``, among ``objects`` objects."""
    db = Database(tmp_path / f"db{objects}", checkpoint_threshold=0)
    with db.transaction():
        refs = [db.pnew(Part(f"p{i}", i)) for i in range(objects)]
    target = refs[objects // 2]
    pool = db._pool

    def lookups(undo) -> int:
        before = pool.hits + pool.misses
        undo()
        return pool.hits + pool.misses - before

    ops = {
        "write": lambda: setattr(target, "weight", -1),
        "newversion": lambda: db.newversion(target),
        "pdelete": lambda: db.pdelete(target),
        "pnew": lambda: db.pnew(Part("new", 0)),
    }
    out = {}
    for name, op in ops.items():
        txn = db.begin()
        op()
        out[name] = lookups(txn.abort)
    with db.transaction():
        savepoint = db.savepoint()
        target.weight = -2
        out["rollback_to"] = lookups(lambda: db.rollback_to(savepoint))
    assert target.weight == objects // 2 and db.object_count() == objects
    assert check_database(db, strict=True).problems == []
    db.close()
    return out


def test_an_undo_costs_what_the_transaction_touched(tmp_path):
    """The counted gate: an undo restores memory from the records it
    undid, so its buffer-pool lookups do not grow with the database (a
    rescan of every heap grows about 11x from 200 to 4,000 objects)."""
    small = _lookups_per_undo(tmp_path, 200)
    large = _lookups_per_undo(tmp_path, 4000)
    assert small == large
    assert max(small.values()) <= 16, small


def test_multi_op_transaction_is_atomic(db):
    ref = db.pnew(Part("acct", 100))
    other = db.pnew(Part("acct2", 0))
    try:
        with db.transaction():
            ref.weight = 0
            other.weight = 100
            raise RuntimeError("crash between the two logically paired writes")
    except RuntimeError:
        pass
    assert ref.weight == 100
    assert other.weight == 0


def test_explicit_begin_commit(db):
    txn = db.begin()
    ref = db.pnew(Part("manual", 1))
    assert txn.op_count > 0
    txn.commit()
    assert ref.weight == 1
    assert db.current_transaction() is None


def test_nested_begin_rejected(db):
    db.begin()
    with pytest.raises(TransactionStateError):
        db.begin()
    db.current_transaction().abort()


def test_ops_after_commit_rejected(db):
    txn = db.begin()
    txn.commit()
    with pytest.raises(TransactionStateError):
        txn.commit()
    with pytest.raises(TransactionStateError):
        txn.abort()


def test_transaction_context_commits_by_default(db):
    with db.transaction() as txn:
        db.pnew(Part("ctx", 1))
    assert txn.state == "committed"


def test_concurrent_writers_serialize(db):
    """Two threads incrementing through transactions lose no updates."""
    ref = db.pnew(Part("counter", 0))
    errors = []

    def worker():
        for _ in range(10):
            try:
                with db.transaction():
                    ref.weight = ref.weight + 1
            except (LockTimeoutError, TransactionAborted) as exc:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # All increments that did not time out are reflected exactly once.
    assert ref.weight == 20 - len(errors)


def test_deadlock_resolved_by_timeout(tmp_path):
    from repro import Database, probe

    db = Database(tmp_path / "dl", lock_timeout=0.3)
    a = db.pnew(Part("a", 1))
    b = db.pnew(Part("b", 1))
    outcome = []
    barrier = threading.Barrier(2)

    def t1():
        try:
            with db.transaction():
                a.weight = 10
                barrier.wait()
                b.weight = 10
            outcome.append("t1-commit")
        except Exception:
            outcome.append("t1-abort")

    def t2():
        try:
            with db.transaction():
                b.weight = 20
                barrier.wait()
                a.weight = 20
            outcome.append("t2-commit")
        except Exception:
            outcome.append("t2-abort")

    threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # At least one side must have aborted; the database stays consistent.
    assert "t1-abort" in outcome or "t2-abort" in outcome
    assert a.weight in (1, 10, 20)
    assert b.weight in (1, 10, 20)
    db.close()
