"""The commit-path garbage pacer: in-place writes need no collector.

Every in-place write of a large payload displaces the previous body, a
zero-ref candidate.  With no retention policy and no reclaim call, a
commit that finds garbage (candidate bytes plus dead pack bytes) grown by
the live payload bytes since the last attempt reclaims it
(``Database._pace_reclaim``, ``repro.storage.blobs.GARBAGE_PACE``).
Everything here is counted, not timed.
"""

from __future__ import annotations

from repro import Database, probe
from repro.shard import ShardedDatabase
from repro.storage.faults import FaultInjector, FaultPlan
from repro.tools.check import check_database
from repro.tools.inspect import inspect_database
from tests.conftest import Doc

#: Objects rewritten in place, and the length of every body (all bodies
#: encode to one size, so "live" is exactly OBJECTS bodies).
OBJECTS = 4
BODY = 2048


def _body(oid_value: int, k: int) -> str:
    return f"{oid_value}:{k}:".ljust(BODY, "x")


def _load(db) -> list:
    return [db.pnew(Doc(_body(i, 0))) for i in range(OBJECTS)]


def _rewrite_all(refs, k: int, after_each=None) -> None:
    for ref in refs:
        ref.text = _body(ref.oid.value, k)
        if after_each is not None:
            after_each()


def test_garbage_never_outgrows_live(tmp_path):
    """One attempt per live-sized batch of displaced bodies, each freeing
    the whole batch: garbage stays at or below live after every commit."""
    with Database(tmp_path / "db") as db:
        refs = _load(db)
        live = db.stats()["blobs.live_bytes"]

        def bounded() -> None:
            stats = db.stats()
            garbage = stats["blobs.pending_reclaim_bytes"] + stats["blobs.dead_bytes"]
            assert garbage <= stats["blobs.live_bytes"] == live

        for k in range(1, 5):
            _rewrite_all(refs, k, bounded)
        stats = db.stats()
        assert stats["gc.paced_runs"] == 4 and stats["gc.runs"] == 0
        assert stats["gc.paced_bytes_freed"] == 4 * live
        assert stats["blobs.count"] == stats["blobs.live"] == OBJECTS
        assert check_database(db, strict=True).ok


def test_blocked_garbage_waits_for_another_live_sized_batch(tmp_path):
    """A pinned snapshot blocks every candidate.  The attempt that finds
    them blocked raises the pacer's mark, so the next attempt waits for
    another live-sized batch instead of rescanning at every commit; the
    first attempt after the pin closes reclaims all of it."""
    with Database(tmp_path / "db") as db:
        refs = _load(db)
        live = db.stats()["blobs.live_bytes"]
        with db.snapshot():
            for k in range(1, 4):
                _rewrite_all(refs, k)
            stats = db.stats()
            assert stats["gc.paced_runs"] == 3  # not 3 * OBJECTS - 3
            assert stats["gc.paced_bytes_freed"] == 0
            assert stats["blobs.pending_reclaim_bytes"] == 3 * live
        _rewrite_all(refs[:-1], 4)
        assert db.stats()["gc.paced_runs"] == 3  # 3 bodies short of the mark
        _rewrite_all(refs[-1:], 4)
        stats = db.stats()
        assert stats["gc.paced_runs"] == 4
        assert stats["gc.paced_bytes_freed"] == 4 * live
        assert stats["blobs.pending_reclaim_bytes"] == 0
        assert check_database(db, strict=True).ok


def test_a_body_displaced_beside_a_reclaim_does_not_delay_the_next(tmp_path):
    """A reclaim that runs while a transaction has displaced a body but
    not yet published it must leave that body, and must not raise the
    mark by it: the next publish makes it eligible, so it counts toward
    the next live-sized batch, which then reclaims on time."""
    with Database(tmp_path / "db") as db:
        refs = _load(db)
        live = db.stats()["blobs.live_bytes"]
        with db.transaction():
            _rewrite_all(refs[:1], 1)
            assert db.reclaim_blobs() == (0, 0, 1)
        _rewrite_all(refs[1:], 1)
        stats = db.stats()
        assert stats["gc.paced_runs"] == 1
        assert stats["gc.paced_bytes_freed"] == live
        assert stats["blobs.pending_reclaim_bytes"] == 0


def test_a_failed_pacer_flush_does_not_fail_its_commit(tmp_path):
    """The pacer runs after its commit is durable: an fsync error on its
    tombstone flush is counted by the WAL, the commit still returns, and
    the next commit's attempt reclaims everything."""
    with Database(tmp_path / "db") as db:
        refs = _load(db)
        _rewrite_all(refs[:-1], 1)
        # WAL fsync 1 is the commit's own, 2 the pacer's tombstone flush.
        probe.attach(FaultInjector(FaultPlan().fsync_error("wal.flush.fsync", hit=2)))
        try:
            _rewrite_all(refs[-1:], 1)
        finally:
            probe.detach()
        stats = db.stats()
        assert stats["wal.write_failures"] == 1
        assert (stats["gc.paced_runs"], stats["gc.paced_bytes_freed"]) == (1, 0)
        _rewrite_all(refs[:1], 2)
        stats = db.stats()
        assert stats["gc.paced_runs"] == 2
        assert stats["blobs.pending_reclaim_bytes"] == 0
        assert check_database(db, strict=True).ok


def test_reclaim_blobs_opens_no_transaction(tmp_path):
    """A forced reclaim with nothing eligible appends and forces nothing
    (it used to run in an autocommit transaction: BEGIN, COMMIT, fsync)."""
    with Database(tmp_path / "db") as db:
        db.pnew(Doc(_body(0, 0)))
        before = db.stats()
        assert db.reclaim_blobs() == (0, 0, 0)
        after = db.stats()
        assert after["wal.flushes"] == before["wal.flushes"]
        assert after["wal.bytes"] == before["wal.bytes"]


def test_router_sums_the_pacer_counters_and_inspect_shows_the_ratio(tmp_path):
    router = ShardedDatabase(tmp_path / "router", nshards=2)
    try:
        refs = [router.pnew(Doc(_body(i, 0))) for i in range(2)]  # one per shard
        _rewrite_all(refs, 1)  # one displaced body = one live body, per shard
        stats = router.stats()
        assert stats["gc.paced_runs"] == 2
        assert stats["gc.paced_bytes_freed"] == stats["blobs.live_bytes"]
        shard = router.shards[refs[0].oid.value % 2]
        with shard.snapshot():  # the pin keeps the next displaced body
            refs[0].text = _body(refs[0].oid.value, 2)
            rendered = inspect_database(shard).render()
        assert "garbage/live 1.00" in rendered and "2 paced run(s)" in rendered
    finally:
        router.close()
