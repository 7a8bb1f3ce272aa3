"""Retention rules and version tags are a policy over ordinary objects.

``repro.core.gc`` keeps its state as persistent objects and reaches an
engine only through its public surface, so each rule below is checked on
the embedded database and on a four-shard router: a dead tag is skipped
and then collected, duplicates left by racing first writes read as the
smallest oid until the next write leaves one, reading the policy state
writes nothing, a tag waits out another transaction's uncommitted version,
and a router with a shard down prunes nothing and refuses the policy's
reads and writes.
"""

from __future__ import annotations

import threading

import pytest

from repro import probe
from repro.core import gc
from repro.core.gc import RetentionPolicy
from repro.core.identity import Vid
from repro.errors import ShardUnavailableError, UnknownVersionError
from repro.shard import ShardedDatabase
from tests.conftest import Doc, Part

ENGINE_KINDS = ("database", "router-4")


def test_a_dead_tag_is_skipped_and_the_next_run_gc_deletes_it(engine):
    ref = engine.pnew(Part("p", 1))
    v2 = engine.newversion(ref)
    kept = gc.tag_version(engine, Vid(ref.oid, 1), "kept")
    gone = gc.tag_version(engine, v2, "gone")
    engine.pdelete(v2)  # pdelete knows nothing about tags: this one is dead
    assert gc.version_tags(engine, ref) == {1: "kept"}
    state = gc.load(engine)
    assert state.tags == {ref.oid: {1: "kept"}} and state.dead_tags == (gone.oid,)
    engine.run_gc(dry_run=True)
    assert engine.object_exists(gone.oid)  # a dry run deletes nothing
    engine.run_gc()
    assert not engine.object_exists(gone.oid) and engine.object_exists(kept.oid)
    assert gc.load(engine).dead_tags == ()
    assert gc.version_tags(engine, ref) == {1: "kept"}


def test_duplicates_read_as_the_smallest_oid_and_the_next_write_leaves_one(engine):
    ref = engine.pnew(Part("p", 1))
    vid = Vid(ref.oid, 1)
    key = gc.scope_key(Part)
    # What two racing first-time writers leave: two objects for one key.
    tags = sorted(
        (engine.pnew(gc.VersionTag(vid, name)) for name in ("a", "b")), key=lambda r: r.oid
    )
    rules = sorted(
        (engine.pnew(gc.RetentionRule(key, RetentionPolicy(keep_last_n=n))) for n in (2, 5)),
        key=lambda r: r.oid,
    )
    low_tag, low_rule = tags[0].name, RetentionPolicy(keep_last_n=rules[0].keep_last_n)
    assert gc.version_tags(engine, ref) == {1: low_tag}
    state = gc.load(engine)
    assert state.tags == {ref.oid: {1: low_tag}} and state.rules == {key: low_rule}
    assert gc.retention_for(engine, Part) == gc.retention_for(engine, ref) == low_rule

    gc.tag_version(engine, vid, "c")
    assert [r.oid for r in engine.cluster(gc.VersionTag)] == [tags[0].oid]
    assert gc.version_tags(engine, ref) == {1: "c"}
    gc.set_retention(engine, Part, RetentionPolicy(keep_last_n=3))
    assert [r.oid for r in engine.cluster(gc.RetentionRule)] == [rules[0].oid]
    assert gc.retention_for(engine, ref) == RetentionPolicy(keep_last_n=3)

    engine.pnew(gc.VersionTag(vid, "d"))
    gc.untag_version(engine, vid)
    assert engine.cluster(gc.VersionTag) == [] and gc.version_tags(engine, ref) == {}
    engine.pnew(gc.RetentionRule(key, RetentionPolicy(keep_last_n=4)))
    gc.set_retention(engine, Part, None)
    assert engine.cluster(gc.RetentionRule) == [] and gc.retention_for(engine, Part) is None


def test_reading_the_policy_and_a_pass_with_nothing_to_do_write_nothing(engine):
    ref = engine.pnew(Part("p", 1))
    engine.newversion(ref)
    gc.set_retention(engine, Part, RetentionPolicy(keep_last_n=2))
    gc.tag_version(engine, Vid(ref.oid, 2), "latest")
    flushes = engine.stats()["wal.flushes"]
    state = gc.load(engine)
    assert state.rules == {gc.scope_key(Part): RetentionPolicy(keep_last_n=2)}
    assert state.tags == {ref.oid: {2: "latest"}}
    report = engine.run_gc()
    assert report.versions_deleted == report.blobs_unlinked == report.candidates_remaining == 0
    assert engine.stats()["wal.flushes"] == flushes


def _body(n: int, k: int) -> str:
    return f"{n}:{k}:".ljust(2048, "x")  # a blob-sized payload


def test_a_router_with_a_shard_down_prunes_nothing_but_reclaims_blobs(tmp_path):
    """A tag protecting a version may live on the missing shard, so the
    router prunes nothing until every shard is up; the up shards still
    reclaim the zero-ref blobs they hold."""
    with ShardedDatabase(tmp_path / "router", nshards=4) as router:
        with router.transaction():
            docs = [router.pnew(Doc(_body(n, 0))) for n in range(8)]  # two per shard
            for n, doc in enumerate(docs):
                router.newversion(doc).text = _body(n, 1)
        for n, doc in enumerate(docs):
            doc.text = _body(n, 2)  # displaces one body per doc: a candidate each
        gc.set_retention(router, Doc, RetentionPolicy(keep_last_n=1))
        router.kill_shard(3)
        report = router.run_gc()
        assert report.versions_deleted == 0 and report.batches == 0
        assert report.blobs_unlinked == 6  # shards 0-2's candidates, not shard 3's
        router.reattach_shard(3)
        report = router.run_gc()
        assert report.versions_deleted == 8 == router.stats()["gc.versions_deleted"]
        assert all(router.version_count(doc) == 1 for doc in docs)


class _Asked(probe.Observer):
    """Sets ``gate`` when any thread asks for a lock it does not hold."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate

    def point(self, name: str) -> None:
        if name == "txn.lock":
            self.gate.set()


class _Abort(Exception):
    pass


def test_a_tag_waits_out_another_transactions_uncommitted_version(engine):
    """Another transaction holds an uncommitted ``newversion`` and aborts
    once the tagger has asked for a lock: the tag is refused, and the
    serial handed out again later carries no tag."""
    ref = engine.pnew(Part("p", 1))
    held, end, gate = threading.Event(), threading.Event(), threading.Event()
    outcome: list[BaseException] = []

    def owner() -> None:
        try:
            with engine.transaction():
                engine.newversion(ref)
                held.set()
                end.wait(10)
                raise _Abort
        except _Abort:
            pass

    def tagger() -> None:
        try:
            gc.tag_version(engine, Vid(ref.oid, 2), "v2")
        except BaseException as exc:  # noqa: BLE001 - checked below
            outcome.append(exc)
        finally:
            gate.set()

    threads = [threading.Thread(target=owner), threading.Thread(target=tagger)]
    threads[0].start()
    assert held.wait(10)
    probe.attach(_Asked(gate))
    try:
        threads[1].start()
        assert gate.wait(10)  # the tagger waits for the lock, or is done
        end.set()
        for thread in threads:
            thread.join(10)
    finally:
        probe.detach()
    assert [type(exc) for exc in outcome] == [UnknownVersionError]
    assert engine.newversion(ref).vid.serial == 2
    assert gc.version_tags(engine, ref) == {} and engine.cluster(gc.VersionTag) == []


def test_a_router_with_a_shard_down_refuses_the_policy_reads_and_writes(tmp_path):
    """The rule's shard is down: a write would add a second rule beside
    it, a read would miss it, so each raises and writes nothing."""
    with ShardedDatabase(tmp_path / "router", nshards=4) as router:
        parts = [router.pnew(Part(f"p{n}", n)) for n in range(4)]
        rule = gc.set_retention(router, Part, RetentionPolicy(keep_last_n=2))
        home = router.placement.shard_of(rule.oid)
        target = next(p for p in parts if router.placement.shard_of(p.oid) != home)
        router.kill_shard(home)
        for call in (
            lambda: gc.set_retention(router, Part, RetentionPolicy(keep_last_n=5)),
            lambda: gc.retention_for(router, Part),
            lambda: gc.tag_version(router, Vid(target.oid, 1), "t"),
            lambda: gc.untag_version(router, Vid(target.oid, 1)),
            lambda: gc.version_tags(router, target),
        ):
            with pytest.raises(ShardUnavailableError):
                call()
        assert router.cluster(gc.RetentionRule) == router.cluster(gc.VersionTag) == []
        router.reattach_shard(home)
        gc.set_retention(router, Part, RetentionPolicy(keep_last_n=5))
        assert [r.oid for r in router.cluster(gc.RetentionRule)] == [rule.oid]
        assert gc.retention_for(router, Part) == RetentionPolicy(keep_last_n=5)


def test_a_shard_reattached_during_the_load_still_prunes_nothing(tmp_path, monkeypatch):
    """A shard down when the policy was read may hold a tag the read
    missed, even if it is back by the time the pass would prune."""
    with ShardedDatabase(tmp_path / "router", nshards=4) as router:
        with router.transaction():
            parts = [router.pnew(Part(f"p{n}", n)) for n in range(4)]
            for part in parts:
                router.newversion(part)
        rule = gc.set_retention(router, Part, RetentionPolicy(keep_last_n=1))
        down = (router.placement.shard_of(rule.oid) + 1) % 4
        router.kill_shard(down)
        load = gc.load

        def load_then_reattach(db):
            state = load(db)
            router.reattach_shard(down)
            return state

        monkeypatch.setattr(gc, "load", load_then_reattach)
        assert router.run_gc().versions_deleted == 0
        monkeypatch.undo()
        assert router.run_gc().versions_deleted == 4
