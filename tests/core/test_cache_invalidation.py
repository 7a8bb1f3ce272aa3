"""Cache-correctness tests for the tiered materialization cache.

The byte-budgeted bytes cache and the shared decoded cache behind the
attribute fast path must never serve stale state: every mutation path (``write_version``, interior ``pdelete``,
transaction rollback, oid reuse after abort) has a test here proving
the caches are invalidated precisely -- and only where they must be.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, StoragePolicy
from repro.core.cache import BudgetedLRU
from repro.errors import DanglingReferenceError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.tools.check import check_database

from tests.conftest import Doc, Node, Part


# -- BudgetedLRU unit behaviour ------------------------------------------------


def test_budgeted_lru_enforces_budget():
    lru = BudgetedLRU(10, len)
    lru.put("a", b"xxxx")
    lru.put("b", b"yyyy")
    assert lru.used == 8
    lru.get("a")  # refresh recency: "b" becomes the LRU victim
    lru.put("c", b"zzzz")
    assert "b" not in lru
    assert "a" in lru and "c" in lru
    assert lru.used <= lru.budget
    assert lru.evictions == 1


def test_budgeted_lru_oversized_entry_admitted_once():
    lru = BudgetedLRU(4, len)
    lru.put("big", b"xxxxxxxx")  # larger than the whole budget
    assert "big" in lru  # admitted...
    lru.put("small", b"xx")
    assert "big" not in lru  # ...but first out
    assert "small" in lru


def test_budgeted_lru_group_pop():
    lru = BudgetedLRU(100, len, group_of=lambda key: key[0])
    lru.put(("x", 1), b"aa")
    lru.put(("x", 2), b"bb")
    lru.put(("y", 1), b"cc")
    assert lru.pop_group("x") == 2
    assert len(lru) == 1
    assert lru.used == 2
    assert ("y", 1) in lru


def test_bytes_cache_stays_within_budget(tmp_path):
    """The original thrash bug: creation paths must respect the budget too."""
    db = Database(tmp_path / "budget", cache_budget=4096)
    try:
        refs = [db.pnew(Doc("x" * 256)) for _ in range(64)]
        for ref in refs:
            assert ref.text == "x" * 256
        cache = db.store._bytes_cache
        assert cache.used <= cache.budget
        assert db.stats()["cache.bytes_evictions"] > 0
        # The hot tail is retained, not wholesale-cleared.
        assert len(cache) > 0
    finally:
        db.close()


# -- staleness: write_version --------------------------------------------------


def test_materialize_after_write_version(any_db):
    db = any_db
    ref = db.pnew(Part("p", 1))
    pinned = ref.pin()
    assert pinned.weight == 1  # warms bytes + decoded caches
    ref.weight = 2  # in-place write to the same (latest) version
    assert pinned.weight == 2
    assert db.store.materialize(pinned.vid).weight == 2


def test_write_version_refreshes_delta_children(delta_db):
    db = delta_db
    ref = db.pnew(Doc("base"))
    v1 = ref.pin()
    v2 = db.newversion(ref)
    v2.text = "child"
    assert v1.text == "base" and v2.text == "child"  # warm caches
    v1.text = "rebased"  # rewriting a delta base re-encodes children
    assert v1.text == "rebased"
    assert v2.text == "child"  # child content preserved, not stale
    assert check_database(db).ok


# -- staleness: interior pdelete -----------------------------------------------


def test_materialize_after_interior_pdelete(delta_db):
    db = delta_db
    ref = db.pnew(Doc("v0"))
    vrefs = [ref.pin()]
    with db.transaction():
        for i in range(1, 20):
            vref = db.newversion(ref)
            vref.text = f"v{i}"
            vrefs.append(vref)
    for i, vref in enumerate(vrefs):  # warm every version's cache entry
        assert vref.text == f"v{i}"
    victim = vrefs[10]  # interior node: children get re-based
    db.pdelete(victim)
    with pytest.raises(DanglingReferenceError):
        db.store.materialize(victim.vid)
    for i, vref in enumerate(vrefs):
        if i == 10:
            continue
        assert vref.text == f"v{i}"
    assert check_database(db).ok


def test_pdelete_object_drops_every_cached_version(db):
    ref = db.pnew(Part("p", 1))
    vid = db.store.latest_vid(ref.oid)
    assert ref.weight == 1
    assert vid in db.store._bytes_cache
    db.pdelete(ref)
    assert vid not in db.store._bytes_cache
    with pytest.raises(DanglingReferenceError):
        db.store.materialize(vid)


# -- staleness: rollback -------------------------------------------------------


def test_rollback_invalidates_touched_object(db):
    ref = db.pnew(Part("p", 1))
    assert ref.weight == 1
    with pytest.raises(RuntimeError):
        with db.transaction():
            ref.weight = 99
            assert ref.weight == 99  # the txn sees (and caches) its write
            raise RuntimeError("abort")
    assert ref.weight == 1  # undo restored the heap; cache must not say 99


def test_rollback_keeps_untouched_objects_cached(db):
    touched = db.pnew(Part("touched", 1))
    bystander = db.pnew(Part("bystander", 2))
    assert touched.weight == 1 and bystander.weight == 2
    bystander_vid = db.store.latest_vid(bystander.oid)
    assert bystander_vid in db.store._bytes_cache
    with pytest.raises(RuntimeError):
        with db.transaction():
            touched.weight = 99
            raise RuntimeError("abort")
    # Precise invalidation: the bystander's hot entry survived the abort.
    assert bystander_vid in db.store._bytes_cache
    assert touched.weight == 1
    assert bystander.weight == 2


def test_savepoint_rollback_invalidates_cache(db):
    ref = db.pnew(Part("p", 1))
    with db.transaction():
        mark = db.savepoint()
        ref.weight = 50
        assert ref.weight == 50
        db.rollback_to(mark)
        assert ref.weight == 1
    assert ref.weight == 1


def test_oid_reuse_after_abort_serves_no_ghost(db):
    """Aborting a pnew un-allocates its oid; cached ghost state must die."""
    with pytest.raises(RuntimeError):
        with db.transaction():
            ghost = db.pnew(Part("ghost", 666))
            assert ghost.weight == 666  # caches payload under the fresh oid
            ghost_oid = ghost.oid
            raise RuntimeError("abort")
    fresh = db.pnew(Part("fresh", 1))
    assert fresh.oid == ghost_oid  # the oid counter was rolled back
    assert fresh.name == "fresh"
    assert fresh.weight == 1


# -- the attribute-read fast path ---------------------------------------------


def test_attr_fast_path_counters_move(db):
    ref = db.pnew(Part("p", 1))
    assert ref.weight == 1
    base = db.stats()
    for _ in range(10):
        assert ref.weight == 1
    stats = db.stats()
    assert stats["cache.decoded_hits"] - base["cache.decoded_hits"] >= 10


def test_attr_fast_path_containers_are_copies(db):
    doc = db.pnew(Doc(["t1", "t2"]))
    tags = doc.text
    assert tags == ["t1", "t2"]
    tags.append("t3")  # mutating the returned copy must not stick
    assert doc.text == ["t1", "t2"]


def test_attr_fast_path_methods_still_write_back(db):
    part = db.pnew(Part("p", 1))
    assert part.weight == 1  # warms the shared decode
    assert part.reweigh(5) == 6  # method path: private receiver + write-back
    assert part.weight == 6


def test_attr_fast_path_follows_reference_chains(db):
    a = db.pnew(Node("a"))
    b = db.pnew(Node("b", a))
    assert b.next_ref.label == "a"
    a.label = "a2"  # generic refs stay late-bound through the fast path
    assert b.next_ref.label == "a2"


# -- chain-prefix memoization --------------------------------------------------


def test_chain_prefix_reuses_cached_ancestor(delta_db):
    db = delta_db
    store = db.store
    ref = db.pnew(Doc("v0" + "x" * 512))
    with db.transaction():
        for i in range(1, 15):
            vref = db.newversion(ref)
            vref.text = f"v{i}" + "x" * 512  # big enough that deltas win
    vrefs = db.versions(ref)
    store._bytes_cache.clear()
    store._decoded_cache.clear()
    store.materialize(vrefs[-2].vid)  # caches the chain up to depth-1
    before = store.stats()
    store.materialize(vrefs[-1].vid)  # one delta past the cached ancestor
    after = store.stats()
    assert after["chain_prefix_hits"] == before["chain_prefix_hits"] + 1
    assert after["deltas_applied"] - before["deltas_applied"] <= 1


# -- buffer pool eviction order ---------------------------------------------------


def test_buffer_pool_evicts_least_recently_fetched_unpinned(tmp_path):
    """One LRU: a fetch refreshes a page, a pin shields it, and eviction
    takes the least recently fetched unpinned frame, writing it back
    first (WAL before data) when dirty."""
    disk = DiskManager(tmp_path / "data.odb")
    try:
        pool = BufferPool(disk, capacity=3)
        flushes = []
        pool.before_write = lambda: flushes.append(True)
        a, b, c, d, e = (disk.allocate_page() for _ in range(5))
        for pid in (a, b, c):
            pool.fetch(pid)
            pool.unpin(pid, dirty=pid == b)
        pool.fetch(a)  # refresh a: b is now the least recent
        pool.unpin(a)
        pool.fetch(d)  # evicts b, dirty: written back after the log flush
        pool.unpin(d)
        assert pool.evictions == 1 and flushes == [True]
        pool.fetch(c)  # pinned from here on
        pool.fetch(e)  # c is least recent but pinned: evicts a
        pool.unpin(e)
        misses = pool.misses
        for pid in (c, d, e):
            pool.fetch(pid)
            pool.unpin(pid)
        assert pool.misses == misses  # c, d, e stayed resident
        pool.unpin(c)
        pool.fetch(a)  # a and b really left
        pool.unpin(a)
        pool.fetch(b)
        pool.unpin(b)
        assert pool.misses == misses + 2
        assert pool.evictions == 4
    finally:
        disk.close()


# -- group commit durability ---------------------------------------------------


def test_group_commit_durable_across_crash(tmp_path):
    path = tmp_path / "gc"
    db = Database(path, group_commit_window=0.002)
    refs = [db.pnew(Part(f"p{i}", 0)) for i in range(4)]
    oids = [ref.oid for ref in refs]
    barrier = threading.Barrier(len(refs))

    def work(i: int) -> None:
        barrier.wait()
        for j in range(5):
            with db.transaction():
                refs[i].weight = 100 * i + j

    workers = [threading.Thread(target=work, args=(i,)) for i in range(len(refs))]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    del db  # crash: no close, no checkpoint

    recovered = Database(path)
    try:
        for i, oid in enumerate(oids):
            # Every acknowledged commit survived, including the last.
            assert recovered.deref(oid).weight == 100 * i + 4
        assert check_database(recovered).ok
    finally:
        recovered.close()


def test_group_commit_window_zero_still_piggybacks_safely(tmp_path):
    """window=0 keeps fsync-per-commit semantics for a single thread."""
    db = Database(tmp_path / "plain")
    try:
        before = db.stats()["wal.flushes"]
        for i in range(5):
            db.pnew(Part(f"p{i}", i))
        after = db.stats()["wal.flushes"]
        assert after - before >= 5  # one fsync per autocommit, none skipped
    finally:
        db.close()


# -- chain-depth warning (tools/check) ----------------------------------------


def test_check_warns_on_overlong_delta_chain(tmp_path):
    path = tmp_path / "warn"
    db = Database(path, policy=StoragePolicy(kind="delta", keyframe_interval=50))
    ref = db.pnew(Doc("v0" + "x" * 512))
    with db.transaction():
        for i in range(1, 40):
            vref = db.newversion(ref)
            vref.text = f"v{i}" + "x" * 512
    report = check_database(db)
    assert report.ok
    assert not report.warnings  # 39-step chain is within 2 * 50
    db.close()

    # Reopen with a much smaller interval ("migrated" database): the same
    # 39-step chain now far exceeds 2x the configured cadence.  Integrity
    # is intact, so it must surface as a warning -- ok stays True.
    db = Database(path, policy=StoragePolicy(kind="delta", keyframe_interval=4))
    try:
        report = check_database(db)
        assert report.ok
        assert report.warnings
        assert "delta chain" in report.warnings[0]
        assert "!" in report.render()
    finally:
        db.close()
