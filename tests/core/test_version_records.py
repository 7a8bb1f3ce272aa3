"""One ``ode.versions`` record per version node, and a fixed home record.

Each version record starts with its graph node (``node_header``); an
object's home record holds ``(oid, type_name, floor)`` and a
``newversion`` never rewrites it.  These tests pin down what that layout
must keep: a deleted serial is never issued again (across a reopen and an
abort), a deleted version takes its tag with it, ``check --strict``
compares the durable graph with memory node for node, and a commit's
undo restores the graph from the records it undid.  The engine tests run
on the embedded database and on a four-shard router.
"""

from __future__ import annotations

import pytest

from repro import Database, StoragePolicy
from repro.core import gc as gc_engine
from repro.core.identity import Vid
from repro.core.store import node_header, split_record
from repro.errors import HeapError
from repro.storage.catalog import Catalog
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


# -- a deleted version takes its tag with it -----------------------------------


def test_a_deleted_version_loses_its_tag(engine):
    ref = engine.pnew(Part("p", 1))
    v2 = engine.newversion(ref)
    v3 = engine.newversion(ref)
    engine.tag_version(v2, "rel")
    engine.tag_version(v3, "next")
    engine.pdelete(v2.vid)
    assert engine.version_tags(ref.oid) == {3: "next"}
    with pytest.raises(_Abort):
        with engine.transaction():
            engine.pdelete(v3.vid)
            raise _Abort
    assert engine.version_tags(ref.oid) == {3: "next"}
    engine.pdelete(ref.oid)
    assert engine.version_tags(ref.oid) == {}
    assert not _strict_problems(engine)


def test_one_tag_is_one_catalog_record(tmp_path):
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Part("p", 1))
        vids = [db.newversion(ref).vid for _ in range(3)]
        before = set(db.catalog.root_names())
        for vid in vids:
            db.tag_version(vid, f"t{vid.serial}")
        assert set(db.catalog.root_names()) - before == {
            gc_engine.tag_root(vid) for vid in vids
        }
        db.untag_version(vids[0])
        assert db.version_tags(ref.oid) == {3: "t3", 4: "t4"}
    finally:
        db.close()


def test_a_tag_too_big_for_a_page_is_refused_and_writes_nothing(engine):
    """A tag's catalog record must fit one page: a 5,000-character tag
    raises ``HeapError`` before anything is written, and a short tag on
    the same version then commits."""
    ref = engine.pnew(Part("p", 1))
    v2 = engine.newversion(ref)
    engine.tag_version(engine.versions(ref.oid)[0], "first")
    with pytest.raises(HeapError):
        engine.tag_version(v2, "t" * 5000)
    assert engine.version_tags(ref.oid) == {1: "first"}
    assert not _strict_problems(engine)
    engine.tag_version(v2, "short")
    assert engine.version_tags(ref.oid) == {1: "first", 2: "short"}
    assert not _strict_problems(engine)


def _version_tags_lookups(engine, monkeypatch, oid) -> tuple[dict[int, str], int]:
    """``engine.version_tags(oid)`` and the catalog root names it looked
    at: one per ``get_root``, every root per ``root_names`` (it sorts
    them all)."""
    looked = [0]

    def get_root(catalog, name, default=None):
        looked[0] += 1
        return real_get(catalog, name, default)

    def root_names(catalog, prefix=""):
        looked[0] += len(real_names(catalog))
        return real_names(catalog, prefix)

    real_get, real_names = Catalog.get_root, Catalog.root_names
    with monkeypatch.context() as patch:
        patch.setattr(Catalog, "get_root", get_root)
        patch.setattr(Catalog, "root_names", root_names)
        tags = engine.version_tags(oid)
    return tags, looked[0]


def test_version_tags_of_one_object_does_not_scan_every_tag(engine, monkeypatch):
    """An untagged object's ``version_tags`` makes the same catalog
    lookups with 10 tags on other objects as with 3,000."""
    quiet = engine.pnew(Part("quiet", 0))
    engine.newversion(quiet)
    with engine.transaction():
        others = [engine.pnew(Part(f"o{k}", k)) for k in range(3000)]
    readings = []
    for batch in (others[:10], others[10:]):  # 10 tags, then 3,000
        with engine.transaction():
            for ref in batch:
                engine.tag_version(Vid(ref.oid, 1), f"t{ref.oid.value}")
        readings.append(_version_tags_lookups(engine, monkeypatch, quiet.oid))
    assert readings[0] == readings[1] == ({}, 2), readings
    tagged = others[-1].oid
    assert engine.version_tags(tagged) == {1: f"t{tagged.value}"}


def test_check_reports_a_tag_on_a_dead_version(tmp_path):
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(Part("p", 1))
        db.catalog.set_root(gc_engine.tag_root(Vid(ref.oid, 9)), "ghost")
        problems = check_database(db, strict=True).problems
        assert any("'ghost'" in p and "not a live version" in p for p in problems), problems
    finally:
        db.close()


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
