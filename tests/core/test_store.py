"""Unit tests for the version store (pnew / newversion / pdelete / deref).

Runs against both storage policies via the ``any_db`` fixture where the
behaviour must be identical.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    DanglingReferenceError,
    UnknownObjectError,
)
from repro.core.identity import Oid, Vid
from tests.conftest import Doc, Part


def test_pnew_returns_generic_ref(any_db):
    ref = any_db.pnew(Part("gear", 5))
    assert ref.name == "gear"
    assert any_db.version_count(ref) == 1


def test_pnew_assigns_fresh_oids(any_db):
    a = any_db.pnew(Part("a", 1))
    b = any_db.pnew(Part("b", 2))
    assert a.oid != b.oid


def test_newversion_starts_as_copy_of_base(any_db):
    """Paper §4.2: the new version has the contents of its base."""
    ref = any_db.pnew(Part("gear", 5))
    version = any_db.newversion(ref)
    assert version.name == "gear"
    assert version.weight == 5


def test_newversion_becomes_latest(any_db):
    ref = any_db.pnew(Part("gear", 5))
    version = any_db.newversion(ref)
    version.weight = 6
    assert ref.weight == 6
    assert any_db.latest_vid(ref.oid) == version.vid


def test_newversion_from_object_id_uses_latest(any_db):
    ref = any_db.pnew(Part("gear", 1))
    v2 = any_db.newversion(ref)
    v2.weight = 2
    v3 = any_db.newversion(ref)  # derived from v2 (the latest)
    assert any_db.dprevious(v3).vid == v2.vid
    assert v3.weight == 2


def test_newversion_from_version_id_creates_variant(any_db):
    ref = any_db.pnew(Part("gear", 1))
    v1 = ref.pin()
    v2 = any_db.newversion(ref)
    v2.weight = 2
    variant = any_db.newversion(v1)  # deliberately from the older version
    assert any_db.dprevious(variant).vid == v1.vid
    assert variant.weight == 1  # copies its base, not the latest
    assert len(any_db.leaves(ref)) == 2


def test_version_orthogonality_no_declaration_needed(any_db):
    """Paper §3: any object can be versioned, nothing declared in the type."""

    class Undeclared:
        def __init__(self):
            self.x = 1

    ref = any_db.pnew(Undeclared())  # auto-registers the type
    version = any_db.newversion(ref)  # versioning just works
    assert version.x == 1


def test_update_in_place_does_not_create_version(any_db):
    ref = any_db.pnew(Part("gear", 5))
    ref.weight = 6
    ref.weight = 7
    assert any_db.version_count(ref) == 1
    assert ref.weight == 7


def test_update_nonlatest_version(any_db):
    ref = any_db.pnew(Part("gear", 1))
    v1 = ref.pin()
    any_db.newversion(ref)
    v1.weight = 42  # mutating an old version in place
    assert v1.weight == 42
    assert ref.weight == 1  # the latest version is untouched


def test_pdelete_object_removes_all_versions(any_db):
    ref = any_db.pnew(Part("gear", 1))
    v1 = ref.pin()
    v2 = any_db.newversion(ref)
    any_db.pdelete(ref)
    assert not ref.is_alive()
    assert not v1.is_alive()
    assert not v2.is_alive()
    with pytest.raises(DanglingReferenceError):
        _ = ref.weight


def test_pdelete_version_splices(any_db):
    ref = any_db.pnew(Part("gear", 1))
    v1 = ref.pin()
    v2 = any_db.newversion(ref)
    v3 = any_db.newversion(v2)
    v3.weight = 3
    any_db.pdelete(v2)
    assert not v2.is_alive()
    assert any_db.dprevious(v3).vid == v1.vid  # re-parented
    assert v3.weight == 3  # contents preserved across the splice
    assert any_db.version_count(ref) == 2


def test_pdelete_latest_promotes_previous(any_db):
    """Paper §4.4 + §4.3: the object id then denotes the previous version."""
    ref = any_db.pnew(Part("gear", 1))
    v2 = any_db.newversion(ref)
    v2.weight = 2
    any_db.pdelete(v2)
    assert ref.weight == 1
    assert any_db.version_count(ref) == 1


def test_pdelete_only_version_deletes_object(any_db):
    ref = any_db.pnew(Part("gear", 1))
    only = ref.pin()
    any_db.pdelete(only)
    assert not ref.is_alive()
    assert ref.oid not in [r.oid for r in any_db.cluster(Part)]


def test_pdelete_root_with_delta_children(any_db):
    """Deleting a delta chain's base must not corrupt the children."""
    ref = any_db.pnew(Doc("the quick brown fox jumps over the lazy dog" * 20))
    v1 = ref.pin()
    v2 = any_db.newversion(ref)
    v2.text = v2.text + " -- appended"
    v3 = any_db.newversion(v2)
    v3.text = v3.text + " -- more"
    any_db.pdelete(v1)
    assert v2.text.endswith("-- appended")
    assert v3.text.endswith("-- more")
    any_db.graph(ref).validate()


def test_unknown_object_raises(any_db):
    with pytest.raises((UnknownObjectError, DanglingReferenceError)):
        any_db.latest_vid(Oid(999999))


def test_unknown_version_raises(any_db):
    ref = any_db.pnew(Part("gear", 1))
    with pytest.raises(DanglingReferenceError):
        any_db.materialize(Vid(ref.oid, 999))


def test_double_delete_version_raises(any_db):
    ref = any_db.pnew(Part("gear", 1))
    v2 = any_db.newversion(ref)
    any_db.pdelete(v2)
    with pytest.raises(Exception):
        any_db.pdelete(v2)


def test_materialize_returns_fresh_copies(any_db):
    ref = any_db.pnew(Part("gear", 5))
    a = ref.deref()
    b = ref.deref()
    assert a is not b
    a.weight = 999  # mutating the copy must not leak into the store
    assert ref.weight == 5


def test_cluster_membership(any_db):
    parts = [any_db.pnew(Part(f"p{i}", i)) for i in range(5)]
    docs = [any_db.pnew(Doc(f"d{i}")) for i in range(3)]
    assert {r.oid for r in any_db.cluster(Part)} >= {p.oid for p in parts}
    assert {r.oid for r in any_db.cluster(Doc)} >= {d.oid for d in docs}
    assert all(r.oid not in {d.oid for d in docs} for r in any_db.cluster(Part))


def test_cluster_shrinks_on_delete(any_db):
    ref = any_db.pnew(Part("gone", 0))
    before = len(any_db.cluster(Part))
    any_db.pdelete(ref)
    assert len(any_db.cluster(Part)) == before - 1


def test_versions_listed_in_temporal_order(any_db):
    ref = any_db.pnew(Part("gear", 0))
    for i in range(4):
        v = any_db.newversion(ref)
        v.weight = i + 1
    weights = [v.weight for v in any_db.versions(ref)]
    assert weights == [0, 1, 2, 3, 4]


def test_history_and_traversal_surface(any_db):
    ref = any_db.pnew(Part("gear", 0))
    v1 = ref.pin()
    v2 = any_db.newversion(v1)
    v3 = any_db.newversion(v1)  # variant
    v4 = any_db.newversion(v2)
    assert [h.vid.serial for h in any_db.history(v4)] == [4, 2, 1]
    assert any_db.tprevious(v3).vid == v2.vid
    assert any_db.tnext(v2).vid == v3.vid
    assert {r.vid.serial for r in any_db.dnext(v1)} == {2, 3}
    assert [leaf.vid.serial for leaf in any_db.leaves(ref)] == [3, 4]
    assert [[v.vid.serial for v in p] for p in any_db.alternatives(ref)] == [
        [1, 2, 4],
        [1, 3],
    ]


def test_large_object_spanning_versions(any_db):
    big_text = "x" * 20_000  # several pages long: a blob pack frame
    ref = any_db.pnew(Doc(big_text))
    version = any_db.newversion(ref)
    version.text = big_text + "tail"
    assert ref.text == big_text + "tail"
    assert ref.pin().deref().text == big_text + "tail"
    assert any_db.versions(ref)[0].text == big_text


def test_deep_chain(any_db):
    ref = any_db.pnew(Part("chain", 0))
    for i in range(40):
        v = any_db.newversion(ref)
        v.weight = i + 1
    assert ref.weight == 40
    assert any_db.version_count(ref) == 41
    # every intermediate state is still reachable
    assert [v.weight for v in any_db.versions(ref)] == list(range(41))


def test_store_observer_events(db):
    events = []
    db.store.add_observer(lambda e, oid, vid: events.append((e, oid, vid)))
    ref = db.pnew(Part("observed", 1))
    v = db.newversion(ref)
    ref.weight = 2
    db.pdelete(v)
    db.pdelete(ref)
    kinds = [e for e, _, _ in events]
    assert kinds == ["create", "newversion", "update", "delete_version", "delete_object"]


def test_type_name_recorded(any_db):
    ref = any_db.pnew(Part("typed", 1))
    assert any_db.type_name(ref.oid) == "tests.Part"


def test_version_as_of_timestamps(any_db):
    import time

    before_create = time.time()
    time.sleep(0.01)
    ref = any_db.pnew(Part("timed", 0))
    time.sleep(0.01)
    after_v1 = time.time()
    time.sleep(0.01)
    v2 = any_db.newversion(ref)
    v2.weight = 1
    time.sleep(0.01)
    after_v2 = time.time()

    assert any_db.version_as_of(ref, before_create) is None
    assert any_db.version_as_of(ref, after_v1).weight == 0
    assert any_db.version_as_of(ref, after_v2).weight == 1
    assert any_db.version_as_of(ref, time.time()).vid == any_db.latest_vid(ref.oid)


def test_version_as_of_skips_deleted(any_db):
    import time

    ref = any_db.pnew(Part("timed", 0))
    v2 = any_db.newversion(ref)
    time.sleep(0.01)
    stamp = time.time()
    any_db.pdelete(v2)
    # v2 was latest at `stamp` but is gone; the survivor is returned.
    assert any_db.version_as_of(ref, stamp).vid.serial == 1


@pytest.mark.parametrize("rewrite_base", [True, False])
def test_rewrite_that_turns_a_delta_into_a_full_copy_survives_reopen(
    tmp_path, rewrite_base
):
    """An in-place write can leave a delta no smaller than the content --
    of the version written, or of a child re-based onto it -- and the
    version is then stored full.  The object-table record was not saved
    with the new storage kind, so a reopen read the full copy as a delta:
    ``not a delta (bad magic)``."""
    from repro import Database, StoragePolicy
    from repro.tools.check import check_database

    policy = StoragePolicy(kind="delta")
    db = Database(tmp_path / "db", policy=policy)
    ref = db.pnew(b"a" * 10)  # small enough that any real delta is no saving
    v2 = db.newversion(ref)  # an identity delta against serial 1
    if rewrite_base:
        db.write_version(Vid(ref.oid, 1), None)  # serial 2 re-bases to full
    else:
        db.write_version(v2.vid, b"z" * 10)  # nothing in common with its base
    db.close()
    with Database(tmp_path / "db", policy=policy) as db:
        assert db.store.graph(ref.oid).node(2).data[0] == "F"
        assert db.materialize(v2.vid) == (b"a" if rewrite_base else b"z") * 10
        assert check_database(db, strict=True).ok
