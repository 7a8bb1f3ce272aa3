"""One ``ode.versions`` record per version node, and a fixed home record.

Each version record starts with its graph node (``node_header``); an
object's home record holds ``(oid, type_name, floor)`` and a
``newversion`` never rewrites it.  These tests pin down what that layout
must keep: a deleted serial is never issued again (across a reopen and an
abort), a deleted version's tag is skipped, ``check --strict``
compares the durable graph with memory node for node, and a commit's
undo restores the graph from the records it undid.  The engine tests run
on the embedded database and on a four-shard router.
"""

from __future__ import annotations

import pytest

from repro import Database, StoragePolicy
from repro.core import gc
from repro.core.identity import Vid
from repro.core.store import VersionStore, node_header, split_record
from repro.storage.heap import Rid
from repro.tools.check import check_database
from tests.conftest import Part, open_engine

ENGINE_KINDS = ("database", "router-4")


class _Abort(Exception):
    pass


def _strict_problems(engine) -> list[str]:
    return [
        problem
        for each in getattr(engine, "shards", [engine])
        for problem in check_database(each, strict=True).problems
    ]


def _serials(engine, oid) -> list[int]:
    return [vref.vid.serial for vref in engine.versions(oid)]


# -- serials are never issued twice ----------------------------------------


def test_deleting_the_latest_then_reopening_issues_max_plus_one(engine, engine_kind, tmp_path):
    ref = engine.pnew(Part("p", 1))
    engine.newversion(ref)
    engine.newversion(ref)
    engine.pdelete(Vid(ref.oid, 3))
    assert _serials(engine, ref.oid) == [1, 2]
    engine.close()
    engine = open_engine(engine_kind, tmp_path / "db")
    try:
        assert engine.newversion(ref.oid).vid == Vid(ref.oid, 4)
        assert not _strict_problems(engine)
    finally:
        engine.close()


def test_an_aborted_delete_of_the_latest_restores_the_floor(engine, engine_kind, tmp_path):
    ref = engine.pnew(Part("p", 1))
    engine.newversion(ref)
    engine.newversion(ref)
    engine.pdelete(Vid(ref.oid, 3))  # floor 3
    assert engine.newversion(ref).vid.serial == 4
    with pytest.raises(_Abort):
        with engine.transaction():
            engine.pdelete(Vid(ref.oid, 4))  # floor 4, undone
            assert engine.newversion(ref).vid.serial == 5
            raise _Abort
    assert _serials(engine, ref.oid) == [1, 2, 4]
    assert engine.newversion(ref).vid.serial == 5
    with pytest.raises(_Abort):
        with engine.transaction():
            engine.pdelete(Vid(ref.oid, 5))
            raise _Abort
    assert not _strict_problems(engine)
    engine.close()
    engine = open_engine(engine_kind, tmp_path / "db")
    try:
        assert _serials(engine, ref.oid) == [1, 2, 4, 5]
        assert engine.newversion(ref.oid).vid.serial == 6
        assert not _strict_problems(engine)
    finally:
        engine.close()


# -- a deleted version's tag is dead: readers skip it ----------------------------


def test_a_deleted_version_loses_its_tag(engine):
    ref = engine.pnew(Part("p", 1))
    v2 = engine.newversion(ref)
    v3 = engine.newversion(ref)
    gc.tag_version(engine, v2, "rel")
    gc.tag_version(engine, v3, "next")
    engine.pdelete(v2.vid)
    assert gc.version_tags(engine, ref.oid) == {3: "next"}
    with pytest.raises(_Abort):
        with engine.transaction():
            engine.pdelete(v3.vid)
            raise _Abort
    assert gc.version_tags(engine, ref.oid) == {3: "next"}
    engine.pdelete(ref.oid)
    assert gc.version_tags(engine, ref.oid) == {}
    assert not _strict_problems(engine)


def test_a_long_tag_is_an_ordinary_object(engine):
    """A tag is an object, so a 5,000-character tag is stored like any
    large payload (a catalog record that had to fit one page refused it)."""
    ref = engine.pnew(Part("p", 1))
    v2 = engine.newversion(ref)
    gc.tag_version(engine, engine.versions(ref.oid)[0], "first")
    gc.tag_version(engine, v2, "t" * 5000)
    assert gc.version_tags(engine, ref.oid) == {1: "first", 2: "t" * 5000}
    assert not _strict_problems(engine)
    gc.tag_version(engine, v2, "short")
    assert gc.version_tags(engine, ref.oid) == {1: "first", 2: "short"}
    assert len(engine.cluster(gc.VersionTag)) == 2
    assert not _strict_problems(engine)


def _version_tags_cost(engine, monkeypatch, oid) -> tuple[dict[int, str], int, int]:
    """``gc.version_tags(engine, oid)``, the buffer-pool lookups it made
    on every shard, and the object reads (materializations and attribute
    reads) it asked of the stores."""
    reads = [0]

    def counted(real):
        def read(store, *args):
            reads[0] += 1
            return real(store, *args)
        return read

    pools = [each._pool for each in getattr(engine, "shards", [engine])]
    before = sum(pool.hits + pool.misses for pool in pools)
    with monkeypatch.context() as patch:
        for name in ("materialize", "read_attr"):
            patch.setattr(VersionStore, name, counted(getattr(VersionStore, name)))
        tags = gc.version_tags(engine, oid)
    return tags, sum(pool.hits + pool.misses for pool in pools) - before, reads[0]


def test_version_tags_of_one_object_does_not_scan_every_tag(engine, monkeypatch):
    """The tag index answers one object's tags: an untagged object's
    ``version_tags`` makes the same pool lookups and reads no object with
    10 tags on other objects as with 3,000, and a tagged one reads only its
    own tag.  (A scan of the tag cluster reads every tag.)"""
    quiet = engine.pnew(Part("quiet", 0))
    engine.newversion(quiet)
    with engine.transaction():
        others = [engine.pnew(Part(f"o{k}", k)) for k in range(3000)]
    readings = []
    for batch in (others[:10], others[10:]):  # 10 tags, then 3,000
        with engine.transaction():
            for ref in batch:
                gc.tag_version(engine, Vid(ref.oid, 1), f"t{ref.oid.value}")
        readings.append(_version_tags_cost(engine, monkeypatch, quiet.oid))
    assert readings[0] == readings[1] and readings[0][::2] == ({}, 0), readings
    tagged = others[-1].oid
    # The tagged object's one tag, read twice: its vid (the query's
    # predicate) and its name.
    assert _version_tags_cost(engine, monkeypatch, tagged)[::2] == (
        {1: f"t{tagged.value}"}, 2,
    )


# -- check --strict compares nodes, not serial lists ------------------------------


def _forge_header(db: Database, vid: Vid, **change) -> None:
    """Rewrite one version record's node header behind the store's back."""
    _kind, page_id, slot = db.store.graph(vid.oid).node(vid.serial).data
    heap = db.catalog.ensure_heap("ode.versions")
    (oid, serial, dprev, ctime, kind), payload = split_record(heap.read(Rid(page_id, slot)))
    fields = {**dict(oid=oid, serial=serial, dprev=dprev, ctime=ctime, kind=kind), **change}
    heap.update(Rid(page_id, slot), node_header(**fields) + payload)


@pytest.mark.parametrize("change", [{"dprev": 1}, {"kind": "F"}], ids=["dprev", "kind"])
def test_check_reports_a_flipped_node_header(tmp_path, change):
    db = Database(tmp_path / "db", policy=StoragePolicy(kind="delta"))
    try:
        ref = db.pnew(Part("p", 1))
        db.newversion(ref).weight = 2
        db.newversion(ref).weight = 3  # serial 3: a delta derived from 2
        assert db.store.graph(ref.oid).node(3).data[0] == "D"
        assert check_database(db, strict=True).ok
        _forge_header(db, Vid(ref.oid, 3), **change)
        problems = check_database(db, strict=True).problems
        assert any("durable graph != live graph" in p for p in problems), problems
    finally:
        db.close()


# -- the home record and the graph ------------------------------------------------


def test_a_newversion_leaves_the_home_record_alone(tmp_path):
    db = Database(tmp_path / "db", policy=StoragePolicy(kind="delta"))
    try:
        ref = db.pnew(Part("p", 1))
        homes = db.catalog.ensure_heap("ode.objects")
        before = list(homes.scan())
        for _ in range(50):
            db.newversion(ref)
        assert list(homes.scan()) == before
        published = db.store.graph(ref.oid)
        db.snapshot().close()  # publish: the next write clones
        db.newversion(ref)
        clone = db.store.graph(ref.oid)
        assert clone is not published
        # The clone shares every node it did not change: the base gained
        # a child, so only it was copied.
        shared = [s for s in published.serials() if clone.node(s) is published.node(s)]
        assert shared == published.serials()[:-1]
    finally:
        db.close()
