"""Regression tests for no-op write-back elision and ref identity.

A mutating-method call through a reference used to write the version
back unconditionally -- a full encode + heap update + autocommit fsync
even when the method changed nothing.  The write-back path now compares
the re-encoded payload against the stored bytes and skips clean writes
(counted in ``writebacks_skipped``).

Relatedly, ``Ref``/``VersionRef`` equality used to compare ids only, so
references into *different databases* compared equal; equality now also
requires the same backing store.
"""

from __future__ import annotations

from repro import Database
from tests.conftest import Part


def test_noop_method_call_skips_writeback(tmp_path):
    with Database(tmp_path / "db") as db:
        ref = db.pnew(Part(name="p", weight=10))
        flushes_before = db._log.flush_count
        skipped_before = db.stats()["cache.writebacks_skipped"]

        result = ref.reweigh(0)  # mutates nothing: weight += 0

        assert result == 10
        assert db.stats()["cache.writebacks_skipped"] == skipped_before + 1
        assert db._log.flush_count == flushes_before, (
            "a no-op method call paid a commit fsync"
        )
        assert ref.weight == 10


def test_real_mutation_still_writes_back(tmp_path):
    with Database(tmp_path / "db") as db:
        ref = db.pnew(Part(name="p", weight=10))
        skipped_before = db.stats()["cache.writebacks_skipped"]
        ref.reweigh(5)
        assert ref.weight == 15
        assert db.stats()["cache.writebacks_skipped"] == skipped_before
    # Durability: the mutation survives reopen.
    with Database(tmp_path / "db") as db:
        objs = [db.deref(r.oid) for r in db.store.all_objects()]
        assert [o.weight for o in objs] == [15]


def test_write_version_if_changed_database_api(tmp_path):
    with Database(tmp_path / "db") as db:
        ref = db.pnew(Part(name="p", weight=10))
        vid = db.latest_vid(ref.oid)
        obj = db.materialize(vid)
        assert db.write_version_if_changed(vid, obj) is False
        obj.weight = 11
        assert db.write_version_if_changed(vid, obj) is True
        assert db.materialize(vid).weight == 11


def test_refs_from_different_databases_are_unequal(tmp_path):
    with Database(tmp_path / "a") as db_a, Database(tmp_path / "b") as db_b:
        ref_a = db_a.pnew(Part(name="p", weight=1))
        ref_b = db_b.pnew(Part(name="p", weight=1))
        # Same oid value (both are the first object of their database)...
        assert ref_a.oid == ref_b.oid
        # ...but they denote objects in different stores.
        assert ref_a != ref_b

        vref_a = db_a.versions(ref_a)[0]
        vref_b = db_b.versions(ref_b)[0]
        assert vref_a.vid == vref_b.vid
        assert vref_a != vref_b


def test_refs_same_database_compare_by_id(tmp_path):
    with Database(tmp_path / "db") as db:
        ref = db.pnew(Part(name="p", weight=1))
        again = db.deref(ref.oid)
        assert ref == again
        assert hash(ref) == hash(again)
        # The facade and its store are the same identity for equality.
        store_ref = next(iter(db.store.all_objects()))
        assert ref == store_ref
