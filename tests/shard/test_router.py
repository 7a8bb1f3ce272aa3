"""The sharded router: placement, fast path, 2PC accounting, fan-out.

Everything here runs the real stack -- N embedded shard databases under
one :class:`~repro.shard.router.ShardedDatabase` -- and asserts the two
headline promises: single-shard transactions pay no protocol cost, and
cross-shard transactions run full 2PC (prepare / decide / commit /
forget, all visible in the counters).
"""

from __future__ import annotations

import asyncio
import shutil
import time

import pytest

from repro import Database, probe
from repro.core.identity import Oid
from repro.errors import LockTimeoutError, StorageError, TransactionStateError
from repro.net.client import OdeClient
from repro.net.server import ServerThread
from repro.shard import ModuloPlacement, ShardedDatabase
from repro.storage.faults import FaultInjector, FaultPlan
from repro.tools.check import check_database
from tests.conftest import Part


@pytest.fixture
def router(tmp_path):
    db = ShardedDatabase(tmp_path / "shards", nshards=3)
    yield db
    db.close()


def _twopc(router, key):
    return router.stats()[f"shard.2pc.{key}"]


# -- construction and placement -----------------------------------------------


def test_layout_and_meta(router, tmp_path):
    assert router.nshards == 3
    assert len(router.shards) == 3
    for i in range(3):
        assert (tmp_path / "shards" / f"shard-{i:02d}").is_dir()
    assert router.stats()["shard.count"] == 3


def test_nshards_mismatch_refused(router, tmp_path):
    router.close()
    with pytest.raises(ValueError, match="nshards"):
        ShardedDatabase(tmp_path / "shards", nshards=4)
    # None adopts the persisted count.
    reopened = ShardedDatabase(tmp_path / "shards")
    assert reopened.nshards == 3
    reopened.close()


def test_a_shard_holding_another_shards_object_refuses_to_open(router, tmp_path):
    """Routing is ``oid % nshards`` and nothing else, so the one input that
    could break it -- files that are not this shard's -- is refused at
    open, by name, and ``check --strict`` on the directory names it too."""
    router.close()
    with Database(tmp_path / "solo") as solo:
        for i in range(3):
            solo.pnew(Part(f"s{i}", i))  # oids 1, 2, 3: only 1 is shard 1's
    shutil.rmtree(tmp_path / "shards" / "shard-01")
    shutil.copytree(tmp_path / "solo", tmp_path / "shards" / "shard-01")
    with pytest.raises(StorageError, match=r"shard 1 .*Oid\(2\).*shard 2"):
        ShardedDatabase(tmp_path / "shards")
    with Database(
        tmp_path / "shards" / "shard-01", oid_stride=3, oid_residue=1
    ) as shard:
        problems = check_database(shard, strict=True).problems
    assert [p for p in problems if "Oid(2)" in p and "allocation slice" in p]
    assert [p for p in problems if "Oid(3)" in p] and not any("Oid(1)" in p for p in problems)


def test_pnew_round_robin_matches_modulo_placement(router):
    refs = [router.pnew(Part(f"p{i}", i)) for i in range(9)]
    placement = ModuloPlacement(router.nshards)
    homes = set()
    for ref in refs:
        home = placement.shard_of(ref.oid)
        homes.add(home)
        assert router.shards[home].object_exists(ref.oid)
        for other in range(router.nshards):
            if other != home:
                assert not router.shards[other].object_exists(ref.oid)
    assert homes == {0, 1, 2}, "round-robin must use every shard"


def test_deref_and_reads_route_to_the_holding_shard(router):
    refs = [router.pnew(Part(f"p{i}", i * 10)) for i in range(6)]
    for i, ref in enumerate(refs):
        again = router.deref(ref.oid)
        assert again.weight == i * 10
        assert again.name == f"p{i}"


# -- transactions: fast path vs 2PC -------------------------------------------


def test_single_shard_transaction_pays_no_protocol_cost(router):
    ref = router.pnew(Part("solo", 1))
    before = {k: _twopc(router, k) for k in ("prepares", "decisions", "forgets")}
    with router.transaction():
        ref.weight = 2
    assert ref.weight == 2
    assert _twopc(router, "commits_cross") == 0
    for key, val in before.items():
        assert _twopc(router, key) == val, f"fast path must not touch {key}"
    assert _twopc(router, "commits_single") >= 1


def test_cross_shard_transaction_runs_full_2pc(router):
    a = router.pnew(Part("a", 10))  # shard 0
    b = router.pnew(Part("b", 20))  # shard 1
    with router.transaction():
        a.weight = 11
        b.weight = 19
    assert (a.weight, b.weight) == (11, 19)
    assert _twopc(router, "commits_cross") == 1
    assert _twopc(router, "prepares") == 2
    assert _twopc(router, "decisions") == 1
    assert _twopc(router, "lazy_commits") == 2
    # The verdict is forgotten once both COMMITs are durable, not inside
    # the commit: it is either released or still held, never lost.
    assert _twopc(router, "forgets") + _twopc(router, "decisions_held") == 1
    router.checkpoint()
    assert (_twopc(router, "forgets"), _twopc(router, "decisions_held")) == (1, 0)
    # Nothing lingers: both sides resolved, verdict forgotten.
    for shard in router.shards:
        assert not shard.in_doubt_txns()
        assert not shard.coordinator_decisions()


def test_read_only_participants_are_excluded_from_2pc(router):
    a = router.pnew(Part("a", 10))  # shard 0
    b = router.pnew(Part("b", 20))  # shard 1
    with router.transaction():
        _ = a.weight  # reads shard 0, writes nothing there
        b.weight = 21
    # One writer -> single-shard fast path, the reader just released.
    assert _twopc(router, "commits_cross") == 0
    assert _twopc(router, "prepares") == 0
    assert _twopc(router, "readonly_participants") >= 1


def test_cross_shard_abort_restores_both_sides(router):
    a = router.pnew(Part("a", 10))
    b = router.pnew(Part("b", 20))
    with pytest.raises(RuntimeError, match="boom"):
        with router.transaction():
            a.weight = 99
            b.weight = 99
            raise RuntimeError("boom")
    assert (a.weight, b.weight) == (10, 20)
    assert _twopc(router, "aborts") >= 1
    assert _twopc(router, "decisions") == 0


def test_explicit_abort_refused_once_decided(router):
    gtxn = router.begin()
    gtxn.decided = True  # simulate a durable verdict
    with pytest.raises(TransactionStateError, match="decided"):
        gtxn.abort()
    gtxn.decided = False
    gtxn.abort()


def test_run_transaction_retries_and_returns(router):
    a = router.pnew(Part("a", 0))
    b = router.pnew(Part("b", 0))

    def bump():
        a.weight += 1
        b.weight += 1
        return a.weight

    assert router.run_transaction(bump) == 1
    assert (a.weight, b.weight) == (1, 1)


def test_run_transaction_counts_a_forced_conflict(router):
    """The router runs the same retry loop as a shard and keeps its own
    ``txn.*`` bookkeeping (a router workload used to report 0 retries)."""
    a = router.pnew(Part("a", 0))
    b = router.pnew(Part("b", 0))
    calls = []

    def bump():
        calls.append(1)
        a.weight += 1
        b.weight += 1
        if len(calls) == 1:
            raise LockTimeoutError("forced conflict")
        return a.weight

    assert router.run_transaction(bump, backoff=0.001) == 1
    assert (a.weight, b.weight) == (1, 1)  # the first attempt rolled back
    stats = router.stats()
    assert stats["txn.attempts"] == 2
    assert stats["txn.conflicts"] == 1
    assert stats["txn.retries"] == 1
    assert stats["txn.commits"] == 1
    assert stats["txn.giveups"] == 0


def test_run_transaction_deadline_gives_up_in_time(router):
    def conflicted():
        raise LockTimeoutError("conflict")

    start = time.monotonic()
    with pytest.raises(LockTimeoutError):
        router.run_transaction(
            conflicted, max_attempts=10_000, backoff=0.05, deadline=0.3
        )
    assert time.monotonic() - start < 2.0
    assert router.stats()["txn.giveups"] == 1


# -- fan-out surfaces ---------------------------------------------------------


def test_query_and_cluster_fan_out_across_shards(router):
    refs = [router.pnew(Part(f"p{i}", i)) for i in range(7)]
    assert router.object_count() == 7
    assert len(router.cluster(Part)) == 7
    heavy = {r.oid for r in router.query(Part).suchthat(lambda p: p.weight >= 4)}
    assert heavy == {r.oid for r in refs[4:]}
    assert router.query(Part).count() == 7


def test_versions_and_latest_follow_the_object_across_its_shard(router):
    ref = router.pnew(Part("versioned", 1))
    v2 = router.newversion(ref)
    v2.weight = 2
    assert len(router.versions(ref)) == 2
    latest = router.latest_vid(ref.oid)
    assert router.deref(latest).weight == 2


def test_latest_vid_asks_the_home_shard_and_no_other(router, monkeypatch):
    ref = router.pnew(Part("p", 1))
    router.newversion(ref)
    home = router.placement.shard_of(ref.oid)
    asked: list[int] = []
    for idx, shard in enumerate(router.shards):
        for name in ("latest_vid", "object_exists"):
            real = getattr(shard.store, name)
            monkeypatch.setattr(
                shard.store, name,
                lambda oid, idx=idx, real=real: asked.append(idx) or real(oid),
            )
    with router.session() as sess, sess.activate():
        assert router.latest_vid(ref.oid).serial == 2
        assert list(sess._shard_sessions) == [home]
        with router.snapshot() as cut:
            assert cut.latest_vid(ref.oid).serial == 2
    assert asked == [home]  # the cut reads its pinned part, not the store


def test_snapshot_reader_epoch_is_one_per_shard(router):
    router.pnew(Part("p", 1))
    sess = router.session("probe")
    try:
        reader = sess.pin()
        epoch = reader.epoch
        assert isinstance(epoch, tuple) and len(epoch) == router.nshards
        assert reader.cluster(Part)
    finally:
        sess.close()


def test_reopen_preserves_data_and_placement(router, tmp_path):
    refs = [router.pnew(Part(f"p{i}", i)) for i in range(6)]
    oids = [r.oid for r in refs]
    with router.transaction():
        refs[0].weight = 100
        refs[1].weight = 200
    router.close()

    reopened = ShardedDatabase(tmp_path / "shards")
    try:
        assert reopened.last_resolution.resolved == 0
        assert reopened.deref(oids[0]).weight == 100
        assert reopened.deref(oids[1]).weight == 200
        assert reopened.object_count() == 6
    finally:
        reopened.close()


def test_stats_aggregate_shard_counters(router):
    router.pnew(Part("p", 1))
    stats = router.stats()
    assert stats["shard.count"] == 3
    assert "shard.2pc.commits_cross" in stats
    assert "shard.locate_fallbacks" not in stats  # placement is not a hint
    assert stats["objects"] == 1  # summed across shards


def test_stats_report_fault_counters_once_not_per_shard(router):
    """The fault counters are process-wide: summing every shard's copy
    multiplied them by the shard count."""
    injector = probe.attach(FaultInjector(FaultPlan().crash("gc.repair.pre", hit=99)))
    router.pnew(Part("p", 1))
    faults = {k: v for k, v in router.stats().items() if k.startswith("faults.")}
    assert faults == injector.stats()
    assert faults["faults.hits"] > 0 and faults["faults.armed"] == 1


# -- wire servability ---------------------------------------------------------


def test_router_serves_the_wire_protocol(router):
    """A ShardedDatabase drops into ServerThread where a Database goes:
    cross-shard transactions, inline reads and fan-out queries all work
    over the socket, and the 2PC counters surface in wire stats."""
    with ServerThread(router) as server:
        host, port = server.host, server.port

        async def run():
            async with await OdeClient.connect(host, port, pool_size=2) as client:
                async with client.lease() as conn:
                    await conn.begin()
                    oid_a = await conn.pnew(Part("wire-a", 1))
                    oid_b = await conn.pnew(Part("wire-b", 2))
                    await conn.write(oid_a, "weight", 10)
                    await conn.write(oid_b, "weight", 20)
                    await conn.commit()
                assert await client.read(oid_a, "weight") == 10
                assert await client.read(oid_b, "weight") == 20
                oids = await client.query("tests.Part", ("weight", 20))
                assert oids == [oid_b]
                stats = await client.stats()
                assert stats["shard.count"] == 3
                assert stats["shard.2pc.commits_cross"] >= 1
                return oid_a, oid_b

        oid_a, oid_b = asyncio.run(run())
        assert isinstance(oid_a, Oid)
        # The two wire-created objects landed on different shards.
        placement = ModuloPlacement(router.nshards)
        assert placement.shard_of(oid_a) != placement.shard_of(oid_b)
