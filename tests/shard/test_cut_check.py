"""When a router session retakes its global cut.

A session's reads outside a transaction go through its pinned global cut
(:meth:`RouterSession.current_cut`).  The cut is reused until it may be
stale: a publish on any shard, a kill or a reattach since it was taken --
including a kill that lands while the cut is being taken.  The check is
one compare of the router's kill/reattach counter plus one epoch compare
per part of the cut.
"""

from __future__ import annotations

import pytest

from repro.errors import ShardUnavailableError
from repro.shard import ShardedDatabase
from tests.conftest import Part

NSHARDS = 3


@pytest.fixture
def fleet(tmp_path):
    router = ShardedDatabase(tmp_path / "shards", nshards=NSHARDS)
    refs = [router.pnew(Part(f"p{i}", i)) for i in range(2 * NSHARDS)]
    by_shard = {router.placement.shard_of(ref.oid): ref for ref in refs}
    assert sorted(by_shard) == list(range(NSHARDS))
    sess = router.session(name="cut-check")
    yield router, by_shard, sess
    sess.close()
    router.close()


def test_an_unchanged_fleet_reuses_the_cut(fleet):
    router, by_shard, sess = fleet
    cut = sess.current_cut()
    assert sess.current_cut() is cut
    assert sess.reader().read_latest_attr(by_shard[1].oid, "weight") == by_shard[1].weight
    assert sess.current_cut() is cut


@pytest.mark.parametrize("idx", range(NSHARDS))
def test_a_publish_on_any_one_shard_retakes_the_cut(fleet, idx):
    router, by_shard, sess = fleet
    cut = sess.current_cut()
    by_shard[idx].weight = 1000 + idx  # an autocommit: one publish on shard idx
    fresh = sess.current_cut()
    assert fresh is not cut and not cut.pinned
    assert sess.reader().read_latest_attr(by_shard[idx].oid, "weight") == 1000 + idx
    assert sess.current_cut() is fresh


def test_a_kill_retakes_the_cut_and_the_dead_shard_fails_fast(fleet):
    router, by_shard, sess = fleet
    cut = sess.current_cut()
    assert sorted(cut.parts) == [0, 1, 2]
    router.kill_shard(1)
    fresh = sess.current_cut()
    assert fresh is not cut and sorted(fresh.parts) == [0, 2]
    with pytest.raises(ShardUnavailableError):
        sess.reader().read_latest_attr(by_shard[1].oid, "weight")
    assert sess.current_cut() is fresh


def test_a_reattach_retakes_the_cut(fleet):
    router, by_shard, sess = fleet
    router.kill_shard(2)
    cut = sess.current_cut()
    assert sorted(cut.parts) == [0, 1]
    router.reattach_shard(2)
    fresh = sess.current_cut()
    assert fresh is not cut and sorted(fresh.parts) == [0, 1, 2]
    assert sess.reader().read_latest_attr(by_shard[2].oid, "name") == by_shard[2].name


def test_a_kill_landing_between_parts_makes_the_cut_stale(fleet, monkeypatch):
    """Shard 0's part is taken, then shard 0 dies while shard 2's part is
    being taken: the cut holds a part of a dead shard and must not be
    served again."""
    router, by_shard, sess = fleet
    last = router.shards[2]
    real_snapshot = last.snapshot

    def snapshot_then_kill(*args, **kwargs):
        part = real_snapshot(*args, **kwargs)
        monkeypatch.undo()
        router.kill_shard(0)
        return part

    monkeypatch.setattr(last, "snapshot", snapshot_then_kill)
    cut = sess.current_cut()
    assert sorted(cut.parts) == [0, 1, 2] and router.shard_health()[0] != "up"
    fresh = sess.current_cut()
    assert fresh is not cut and sorted(fresh.parts) == [1, 2]
    with pytest.raises(ShardUnavailableError):
        sess.reader().read_latest_attr(by_shard[0].oid, "weight")
