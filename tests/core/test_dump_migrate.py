"""Unit tests for dump/load and offline migration."""

from __future__ import annotations

import json

import pytest

from repro import Database
from repro.tools import check_database, dump_database, load_database, migrate_cluster
from repro.tools.dump import DumpError, _decode_value, _encode_value
from repro.tools.migrate import MigrationError, add_field, drop_field, rename_field
from tests.conftest import Doc, Node, Part


# -- dump value lowering ----------------------------------------------------


def test_value_roundtrip_plain():
    for value in (None, True, 0, -7, 1.5, "text", [1, [2]], {"$dict": [[1, 2]]}):
        if isinstance(value, dict):
            continue
        assert _decode_value(_encode_value(value)) == value


def test_value_roundtrip_tagged():
    from repro.core.identity import Oid, Vid

    value = {
        "ids": [Oid(3), Vid(Oid(3), 2)],
        "blob": b"\x00\xff",
        "tup": (1, 2),
        "set": {1, 2},
    }
    assert _decode_value(_encode_value(value)) == value


def test_dump_is_json_serializable(db):
    ref = db.pnew(Part("p", 1))
    db.newversion(ref)
    other = db.pnew(Node("n", next_ref=ref.oid))
    document = dump_database(db)
    text = json.dumps(document)  # must not raise
    assert json.loads(text)["oid_counter"] >= 2


# -- dump/load round trip -----------------------------------------------------


def build_rich_db(db):
    ref = db.pnew(Part("gear", 1))
    base = ref.pin()
    v2 = db.newversion(ref)
    v2.weight = 2
    variant = db.newversion(base)
    variant.weight = 3
    holder = db.pnew(Node("holder", next_ref=ref.oid))
    doc = db.pnew(Doc("x" * 9000))  # over a page: a blob pack frame
    return ref, base, v2, variant, holder, doc


def test_dump_load_roundtrip(tmp_path, db):
    ref, base, v2, variant, holder, doc = build_rich_db(db)
    # Delete one version so the high-water mark differs from live serials.
    db.pdelete(v2)
    document = dump_database(db)

    with Database(tmp_path / "restored") as restored:
        count = load_database(document, restored)
        assert count == 3
        same_ref = restored.deref(ref.oid)
        assert same_ref.weight == 3  # variant was latest
        assert restored.version_count(same_ref) == 2
        assert restored.dprevious(restored.deref(variant.vid)).vid == base.vid
        # Reference inside holder still resolves (oids preserved).
        same_holder = restored.deref(holder.oid)
        assert same_holder.next_ref.weight == 3
        assert restored.deref(doc.oid).text == "x" * 9000
        assert check_database(restored).ok
        # Serial high-water mark preserved: a new version gets a fresh serial.
        fresh = restored.newversion(same_ref)
        assert fresh.vid.serial > v2.vid.serial


def test_load_rejects_nonempty_target(tmp_path, db):
    db.pnew(Part("p", 1))
    document = dump_database(db)
    with Database(tmp_path / "occupied") as target:
        target.pnew(Part("squatter", 0))
        with pytest.raises(DumpError):
            load_database(document, target)


def test_load_rejects_unknown_format(tmp_path, db):
    document = dump_database(db)
    document["format"] = 99
    with Database(tmp_path / "fmt") as target:
        with pytest.raises(DumpError):
            load_database(document, target)


def test_dump_load_into_delta_policy(tmp_path, db):
    """Dumps are policy-independent: load into a delta database."""
    from repro import StoragePolicy

    ref, *_ = build_rich_db(db)
    document = dump_database(db)
    with Database(
        tmp_path / "as_delta", policy=StoragePolicy(kind="delta", keyframe_interval=4)
    ) as restored:
        load_database(document, restored)
        assert restored.deref(ref.oid).weight == 3
        assert check_database(restored).ok


# -- migration ---------------------------------------------------------------


def test_migrate_latest_in_place(db):
    refs = [db.pnew(Part(f"p{i}", i)) for i in range(5)]
    for ref in refs:
        db.newversion(ref)
    report = migrate_cluster(db, Part, add_field("color", "unpainted"))
    assert report.objects_visited == 5
    assert report.versions_rewritten == 5
    assert report.versions_created == 0
    for ref in refs:
        assert ref.color == "unpainted"
        # Old versions untouched.
        assert not hasattr(db.versions(ref)[0].deref(), "color")


def test_migrate_all_versions(db):
    ref = db.pnew(Part("p", 1))
    db.newversion(ref)
    db.newversion(ref)
    report = migrate_cluster(db, Part, add_field("audited", True), versions="all")
    assert report.versions_rewritten == 3
    assert all(v.audited for v in db.versions(ref))


def test_migrate_as_new_version(db):
    ref = db.pnew(Part("p", 1))
    report = migrate_cluster(
        db, Part, add_field("color", "red"), as_new_version=True
    )
    assert report.versions_created == 1
    assert db.version_count(ref) == 2
    assert ref.color == "red"
    assert not hasattr(db.versions(ref)[0].deref(), "color")


def test_rename_and_drop_field(db):
    ref = db.pnew(Part("p", 7))
    migrate_cluster(db, Part, rename_field("weight", "mass"))
    obj = ref.deref()
    assert obj.mass == 7
    assert not hasattr(obj, "weight")
    migrate_cluster(db, Part, drop_field("mass"))
    assert not hasattr(ref.deref(), "mass")


def test_transform_returning_replacement(db):
    ref = db.pnew(Part("p", 1))

    def replace(obj):
        fresh = Part(obj.name.upper(), obj.weight * 10)
        return fresh

    migrate_cluster(db, Part, replace)
    assert ref.name == "P"
    assert ref.weight == 10


def test_transform_changing_type_rejected(db):
    db.pnew(Part("p", 1))
    with pytest.raises(MigrationError):
        migrate_cluster(db, Part, lambda obj: Doc("oops"))


def test_invalid_options(db):
    with pytest.raises(MigrationError):
        migrate_cluster(db, Part, lambda o: None, versions="some")
    with pytest.raises(MigrationError):
        migrate_cluster(db, Part, lambda o: None, versions="all", as_new_version=True)


def test_migrated_database_survives_reopen(tmp_path):
    path = tmp_path / "mig"
    with Database(path) as db:
        ref = db.pnew(Part("p", 1))
        migrate_cluster(db, Part, add_field("era", "v2"))
        oid = ref.oid
    with Database(path) as db:
        assert db.deref(oid).era == "v2"
