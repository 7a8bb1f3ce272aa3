"""Unit tests for attribute indexes and indexed queries."""

from __future__ import annotations

import pytest

from repro.core.indexes import attr_equals
from tests.conftest import Doc, Node, Part


def populate(db, n=10):
    return [db.pnew(Part(f"part{i % 3}", i)) for i in range(n)]


def test_index_build_over_existing_cluster(db):
    refs = populate(db, 9)
    index = db.create_index(Part, "name")
    assert len(index) == 9
    assert index.lookup("part0") == {refs[0].oid, refs[3].oid, refs[6].oid}


def test_create_index_idempotent(db):
    populate(db, 3)
    a = db.create_index(Part, "name")
    b = db.create_index(Part, "name")
    assert a is b


def test_index_tracks_creates(db):
    index = db.create_index(Part, "name")
    ref = db.pnew(Part("fresh", 1))
    assert index.lookup("fresh") == {ref.oid}


def test_index_tracks_updates(db):
    ref = db.pnew(Part("before", 1))
    index = db.create_index(Part, "name")
    ref.name = "after"
    assert index.lookup("before") == set()
    assert index.lookup("after") == {ref.oid}


def test_index_tracks_newversion(db):
    """The index reflects the LATEST version's value."""
    ref = db.pnew(Part("old", 1))
    index = db.create_index(Part, "name")
    v2 = db.newversion(ref)
    v2.name = "new"
    assert index.lookup("old") == set()
    assert index.lookup("new") == {ref.oid}


def test_index_tracks_version_delete(db):
    """Deleting the latest version reverts the indexed value."""
    ref = db.pnew(Part("original", 1))
    index = db.create_index(Part, "name")
    v2 = db.newversion(ref)
    v2.name = "changed"
    db.pdelete(v2)
    assert index.lookup("original") == {ref.oid}
    assert index.lookup("changed") == set()


def test_index_tracks_object_delete(db):
    ref = db.pnew(Part("doomed", 1))
    index = db.create_index(Part, "name")
    db.pdelete(ref)
    assert index.lookup("doomed") == set()
    assert len(index) == 0


def test_update_of_old_version_does_not_move_index(db):
    ref = db.pnew(Part("v1name", 1))
    old = ref.pin()
    v2 = db.newversion(ref)
    v2.name = "v2name"
    index = db.create_index(Part, "name")
    old.name = "edited-old"  # in-place edit of a NON-latest version
    assert index.lookup("v2name") == {ref.oid}
    assert index.lookup("edited-old") == set()


def test_unhashable_values_fall_into_unindexed(db):
    good = db.pnew(Part("ok", 1))
    index = db.create_index(Part, "name")
    bad = db.pnew(Part(["un", "hashable"], 2))
    assert bad.oid in index.unindexed
    assert index.lookup("ok") == {good.oid}


def test_indexed_query_equality(db):
    refs = populate(db, 12)
    db.create_index(Part, "name")
    found = db.query(Part).suchthat(attr_equals("name", "part1")).all()
    assert {r.oid for r in found} == {r.oid for i, r in enumerate(refs) if i % 3 == 1}


def test_indexed_query_matches_scan(db):
    populate(db, 30)
    scan_result = {r.oid for r in db.query(Part).suchthat(attr_equals("name", "part2"))}
    db.create_index(Part, "name")
    index_result = {r.oid for r in db.query(Part).suchthat(attr_equals("name", "part2"))}
    assert index_result == scan_result


@pytest.mark.parametrize("indexed", [False, True])
def test_equality_on_a_reference_valued_attribute(db, indexed):
    """A stored id reads back through a reference as a bound ``Ref`` /
    ``VersionRef``; ``attr_equals`` compares ids on both sides, so it
    matches what the index holds, and what a scan reads."""
    target = db.pnew(Part("t", 1))
    pinned = db.newversion(target)
    by_oid = db.pnew(Node("oid", next_ref=target.oid))
    by_vid = db.pnew(Node("vid", next_ref=pinned.vid))
    db.pnew(Node("none"))
    if indexed:
        db.create_index(Node, "next_ref")
    cases = ((target, by_oid), (target.oid, by_oid), (pinned, by_vid), (pinned.vid, by_vid))
    for value, ref in cases:
        found = db.query(Node).suchthat(attr_equals("next_ref", value)).all()
        assert [r.oid for r in found] == [ref.oid], value


def test_indexed_query_with_extra_predicates(db):
    populate(db, 12)
    db.create_index(Part, "name")
    found = (
        db.query(Part)
        .suchthat(attr_equals("name", "part0"))
        .suchthat(lambda p: p.weight >= 6)
        .all()
    )
    assert sorted(p.weight for p in found) == [6, 9]


def test_over_versions_bypasses_index(db):
    ref = db.pnew(Part("was", 1))
    v2 = db.newversion(ref)
    v2.name = "is"
    db.create_index(Part, "name")
    historical = (
        db.query(Part).over_versions().suchthat(attr_equals("name", "was")).all()
    )
    assert len(historical) == 1  # the old version is still findable


def test_drop_index_falls_back_to_scan(db):
    populate(db, 6)
    db.create_index(Part, "name")
    db.drop_index(Part, "name")
    found = db.query(Part).suchthat(attr_equals("name", "part0")).all()
    assert len(found) == 2


def test_index_survives_abort_via_rebuild(db):
    ref = db.pnew(Part("stable", 1))
    index = db.create_index(Part, "name")
    try:
        with db.transaction():
            ref.name = "dirty"
            db.pnew(Part("phantom", 9))
            raise RuntimeError("abort")
    except RuntimeError:
        pass
    assert index.lookup("stable") == {ref.oid}
    assert index.lookup("dirty") == set()
    assert index.lookup("phantom") == set()


def test_indexes_are_per_cluster(db):
    db.pnew(Part("shared-name", 1))
    doc_index = db.create_index(Doc, "text")
    assert doc_index.lookup("shared-name") == set()
    assert len(doc_index) == 0


def test_distinct_values(db):
    populate(db, 9)
    index = db.create_index(Part, "name")
    assert sorted(index.distinct_values()) == ["part0", "part1", "part2"]
