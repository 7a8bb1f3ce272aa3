"""Unit tests for the operational tools (inspect, check, vacuum, copies)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import Database, StoragePolicy
from repro.core import gc
from repro.core.gc import RetentionPolicy
from repro.core.identity import Vid
from repro.errors import VersionError
from repro.net.client import OdeConnection
from repro.net.server import ServerThread
from repro.storage.heap import Rid
from repro.tools import (
    check_database,
    dump_database,
    inspect_database,
    load_database,
    vacuum,
)
from repro.workloads.synthetic import make_random_tree
from tests.conftest import Doc, Part


# -- inspect -----------------------------------------------------------------


def test_inspect_empty_database(db):
    summary = inspect_database(db)
    assert summary.objects == 0
    assert summary.versions == 0
    assert summary.clusters == []
    assert "objects: 0" in summary.render()


def test_inspect_counts(db):
    refs = [db.pnew(Part(f"p{i}", i)) for i in range(4)]
    db.newversion(refs[0])
    db.newversion(refs[0])
    db.pnew(Doc("d"))
    summary = inspect_database(db)
    assert summary.objects == 5
    assert summary.versions == 7
    by_name = {c.type_name: c for c in summary.clusters}
    assert by_name["tests.Part"].objects == 4
    assert by_name["tests.Part"].versions == 6
    assert by_name["tests.Part"].max_history == 3
    assert by_name["tests.Doc"].objects == 1


def test_inspect_detects_branching(db):
    ref = db.pnew(Part("b", 1))
    base = ref.pin()
    db.newversion(base)
    db.newversion(base)
    summary = inspect_database(db)
    cluster = next(c for c in summary.clusters if c.type_name == "tests.Part")
    assert cluster.branched_objects == 1


def test_inspect_cli(tmp_path, capsys):
    from repro.tools.inspect import main

    with Database(tmp_path / "cli") as db:
        db.pnew(Part("x", 1))
    assert main([str(tmp_path / "cli")]) == 0
    out = capsys.readouterr().out
    assert "objects: 1" in out


def test_inspect_cli_usage(capsys):
    from repro.tools.inspect import main

    assert main([]) == 2


def test_inspect_renders_served_and_sharded_health(db):
    """With a server attached the report gains network + overload lines;
    shard.health.* counters (a router's stats source) gain a shards line."""
    from repro.net.server import ServerThread

    with ServerThread(db):
        summary = inspect_database(db)
        out = summary.render()
        assert "network:" in out
        assert "0 lane frame(s) in 0 run(s) (0 dropped)" in out
        assert "overload: accepting, 0 shed" in out
    # Plain (unserved) databases show neither tier.
    plain = inspect_database(db).render()
    assert "overload:" not in plain
    assert "shards:" not in plain
    # The shards line keys off shard.health.* counters alone.
    summary.counters.update(
        {
            "shard.health.up": 2,
            "shard.health.down": 1,
            "shard.health.degraded": 1,
            "shard.health.kills": 1,
            "shard.health.reattaches": 0,
            "shard.health.failfast": 3,
            "shard.health.skipped_fanouts": 2,
        }
    )
    out = summary.render()
    assert "shards: 2 up / 1 down (1 degraded)" in out
    assert "3 failed fast" in out
    assert "executor:" not in out  # needs shard.exec.* too


def test_inspect_renders_executor_and_global_epoch(db):
    """shard.exec.* / shard.snap.* counters (the parallel cross-shard
    execution tier) gain an executor line with the pool's vitals and the
    global-cut tally."""
    summary = inspect_database(db)
    summary.counters.update(
        {
            "shard.exec.size": 4,
            "shard.exec.tasks": 120,
            "shard.exec.workers": 2,
            "shard.exec.workers_spawned": 4,
            "shard.exec.max_concurrency": 4,
            "shard.exec.queue_wait_p99_ms": 1.25,
            "shard.snap.cuts": 7,
            "shard.snap.degraded_cuts": 1,
        }
    )
    out = summary.render()
    assert "executor: 2/4 worker(s), 120 task(s) scattered" in out
    assert "max concurrency 4" in out
    assert "queue wait p99 1.25ms" in out
    assert "7 global cut(s) (1 degraded)" in out


def test_inspect_renders_the_2pc_line_with_held_verdicts(db):
    """shard.2pc.* counters gain a line that answers "why does shard 0's
    WAL not truncate": verdicts held for a participant's next flush."""
    summary = inspect_database(db)
    assert "2pc:" not in summary.render()
    summary.counters.update(
        {
            "shard.2pc.commits_cross": 9,
            "shard.2pc.commits_single": 4,
            "shard.2pc.prepares": 18,
            "shard.2pc.decisions": 9,
            "shard.2pc.forgets": 7,
            "shard.2pc.decisions_held": 2,
            "shard.2pc.lazy_commits": 18,
        }
    )
    out = summary.render()
    assert "2pc: 9 cross-shard / 4 single-shard commit(s), 18 prepare(s)" in out
    assert "9 verdict(s): 7 forgotten, 2 held; 18 unforced COMMIT(s)" in out


# -- check (fsck) -----------------------------------------------------------------


def test_check_clean_database(db):
    refs = [db.pnew(Part(f"p{i}", i)) for i in range(5)]
    for ref in refs[:2]:
        v = db.newversion(ref)
        v.weight = 100
    report = check_database(db)
    assert report.ok, report.render()
    assert report.objects_checked == 5
    assert report.versions_checked == 7


def test_check_after_heavy_mixed_use(db):
    make_random_tree(db, 30, seed=5)
    ref = db.pnew(Doc("x" * 20000))
    db.newversion(ref)
    db.pdelete(db.versions(ref)[0])
    report = check_database(db)
    assert report.ok, report.render()


def test_check_detects_orphan_payload(db):
    db.pnew(Part("p", 1))
    # Sneak an unreferenced record into the versions heap.
    versions_heap = db.catalog.ensure_heap("ode.versions")
    versions_heap.insert(b"orphan bytes")
    report = check_database(db)
    assert not report.ok
    assert any("orphan" in p for p in report.problems)


def test_check_detects_corrupt_payload(delta_db):
    db = delta_db
    ref = db.pnew(Doc("base " * 200))
    v2 = db.newversion(ref)
    v2.text = "changed " * 200
    # Corrupt v2's stored delta behind the store's back.
    node = db.store.graph(ref.oid).node(2)
    _kind, page_id, slot = node.data
    db.catalog.ensure_heap("ode.versions").update(Rid(page_id, slot), b"garbage")
    db.store._bytes_cache.clear()
    report = check_database(db)
    assert not report.ok


def test_check_reports_an_undecodable_object_record(db):
    """A home record holding an Oid tag with a short body is a problem to
    report, not a crash of the check (it raised ``struct.error``)."""
    db.pnew(Part("p", 1))
    db.catalog.ensure_heap("ode.objects").insert(b"\x0c\x03abc")
    report = check_database(db)
    assert not report.ok
    assert any("undecodable" in p for p in report.problems), report.problems


def test_check_reports_a_record_with_an_unknown_marker(db):
    """A heap record is one of four markers; a spanning master (0x01), which
    the heap no longer writes, makes the open a check derives refuse."""
    db.pnew(Part("p", 1))
    db.catalog.ensure_heap("ode.objects")._physical_insert(b"\x01" + b"master", None)
    report = check_database(db)
    assert any("unknown record marker" in p for p in report.problems), report.problems


def test_check_render(db):
    db.pnew(Part("p", 1))
    assert "OK" in check_database(db).render()


# -- vacuum ----------------------------------------------------------------------


def test_vacuum_preserves_everything(tmp_path, db):
    refs = [db.pnew(Part(f"p{i}", i)) for i in range(5)]
    base = refs[0].pin()
    v2 = db.newversion(refs[0])
    v2.weight = 50
    variant = db.newversion(base)
    variant.weight = 60
    ids = {
        "oid": refs[0].oid,
        "base": base.vid,
        "v2": v2.vid,
        "variant": variant.vid,
    }
    report = vacuum(db, tmp_path / "vacuumed")

    assert report.objects_copied == 5
    assert report.versions_copied == 7
    with Database(tmp_path / "vacuumed") as clean:
        assert clean.export() == db.export()
        ref = clean.deref(ids["oid"])
        assert ref.weight == 60  # variant is latest
        assert clean.deref(ids["base"]).weight == 0
        assert clean.deref(ids["v2"]).weight == 50
        assert clean.dprevious(clean.deref(ids["variant"])).vid == ids["base"]
        assert check_database(clean).ok
        # Oid counter carried forward: new objects get fresh ids.
        fresh = clean.pnew(Part("fresh", 1))
        assert fresh.oid.value > max(r.oid.value for r in refs)
    # The target already holds these oids: install refuses, nothing is rewritten.
    with pytest.raises(VersionError):
        vacuum(db, tmp_path / "vacuumed")


def test_vacuum_reclaims_space(tmp_path, db):
    ref = db.pnew(Doc("x" * 3000))
    doomed = []
    for i in range(40):
        v = db.newversion(ref)
        v.text = f"{i}" + "y" * 3000
        doomed.append(v)
    # The pin keeps the commit-path pacer from reclaiming the deleted
    # versions' payloads, so they are still on disk for vacuum to drop.
    with db.snapshot():
        for v in doomed[:-1]:
            db.pdelete(v)
    db.checkpoint()
    report = vacuum(db, tmp_path / "compact")
    # Payload bytes live in the blob store, so that is where the dead
    # versions' space is reclaimed; heap pages hold fixed-size references
    # and must at least not grow.
    assert report.bytes_saved > 0
    assert report.target_blob_bytes < report.source_blob_bytes
    assert report.pages_saved >= 0
    with Database(tmp_path / "compact") as clean:
        assert clean.version_count(clean.deref(ref.oid)) == 2


def test_vacuum_can_migrate_policy(tmp_path, db):
    ref = db.pnew(Doc("base " * 500))
    for i in range(10):
        v = db.newversion(ref)
        v.text = v.text + f" rev{i}"
    report = vacuum(
        db,
        tmp_path / "as_delta",
        policy=StoragePolicy(kind="delta", keyframe_interval=8),
    )
    assert report.versions_copied == 11
    with Database(
        tmp_path / "as_delta", policy=StoragePolicy(kind="delta", keyframe_interval=8)
    ) as clean:
        migrated = clean.deref(ref.oid)
        assert migrated.text.endswith("rev9")
        assert check_database(clean).ok


def test_vacuum_empty_database(tmp_path, db):
    report = vacuum(db, tmp_path / "empty_target")
    assert report.objects_copied == 0
    with Database(tmp_path / "empty_target") as clean:
        assert clean.object_count() == 0


def test_vacuum_cli(tmp_path, capsys):
    """``--json`` reports what ran; ``--gc-only --dry-run`` deletes
    nothing and needs no target; ``--policy delta`` migrates the copy."""
    from repro.tools.vacuum import main

    source = tmp_path / "src"
    with Database(source) as db:
        ref = db.pnew(Doc("base " * 300))
        for i in range(4):
            db.newversion(ref).text = "base " * 300 + f"rev{i}"
        gc.set_retention(db, Doc, RetentionPolicy(keep_last_n=2))
    assert main([str(source), "--gc-only", "--dry-run", "--json"]) == 0
    planned = json.loads(capsys.readouterr().out)
    assert planned["source"] == str(source) and "vacuum" not in planned
    assert planned["gc"]["versions_deleted"] == 3 and planned["gc"]["batches"] >= 1
    with Database(source) as db:
        assert db.version_count(db.deref(ref.oid)) == 5  # a dry run
    target = tmp_path / "dst"
    assert main([str(source), str(target), "--policy", "delta", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["target"] == str(target)
    # The document and its retention rule.
    assert out["vacuum"]["objects_copied"] == 2
    assert out["vacuum"]["versions_copied"] == 6
    # Deltas of one-word edits sit inline: only the keyframe is a blob.
    vacuumed = out["vacuum"]
    assert vacuumed["target_blob_bytes"] * 4 < vacuumed["source_blob_bytes"]
    with Database(target) as copy:
        assert copy.deref(ref.oid).text.endswith("rev3")
        assert check_database(copy, strict=True).ok
    with pytest.raises(SystemExit) as usage:
        main([str(source)])  # a rewrite needs a target
    assert usage.value.code == 2


# -- copies: vacuum and dump/load install through the store's one door -----------


def _copies(db, tmp_path):
    """Directories of a vacuumed copy and of a dump->JSON->load copy."""
    vacuum(db, tmp_path / "vacuumed")
    document = json.loads(json.dumps(dump_database(db)))
    with Database(tmp_path / "loaded") as loaded:
        load_database(document, loaded)
    return tmp_path / "vacuumed", tmp_path / "loaded"


def test_copies_never_reissue_a_deleted_serial(tmp_path, db):
    """A version id names one version forever: the high-water mark
    travels, so the copy's next ``newversion`` skips the deleted newest
    serial (the vacuum used to hand ``Vid(oid:3)`` out again)."""
    ref = db.pnew(Part("p", 1))
    db.newversion(ref)
    db.pdelete(db.newversion(ref))  # serial 3, the newest, is gone
    for path in _copies(db, tmp_path):
        with Database(path) as copy:
            assert copy.graph(ref.oid).max_serial == 3
            assert copy.newversion(copy.deref(ref.oid)).vid.serial == 4


def test_loaded_objects_are_visible_at_once(tmp_path, db):
    """Right after ``load_database``, with no reopen, a snapshot, a session
    reader and a wire READ each see every loaded object (they saw none)."""
    refs = [db.pnew(Part(f"p{i}", i)) for i in range(3)]
    document = dump_database(db)
    with Database(tmp_path / "loaded") as loaded:
        assert load_database(document, loaded) == 3
        with loaded.snapshot() as snap:
            assert [r.oid for r in snap.cluster(Part)] == [r.oid for r in refs]
        session = loaded.session()
        try:
            reader = session.reader()
            assert [reader.read_attr(reader.latest_vid(r.oid), "weight") for r in refs] == [0, 1, 2]
        finally:
            session.close()
        with ServerThread(loaded) as server:

            async def read_all():
                async with await OdeConnection.open(server.host, server.port) as conn:
                    return [await conn.read(r.oid, "weight") for r in refs]

            assert asyncio.run(read_all()) == [0, 1, 2]


def test_copies_keep_retention_and_tags(tmp_path, db):
    """Retention rules and version tags are ordinary objects, so they
    travel like any other: the copy's collector keeps the tagged version."""
    ref = db.pnew(Part("p", 0))
    for weight in range(1, 6):
        db.newversion(ref).weight = weight
    gc.set_retention(db, Part, RetentionPolicy(keep_last_n=2))
    gc.tag_version(db, Vid(ref.oid, 2), "release")
    policies, tags = gc.load(db).rules, gc.version_tags(db, ref)
    assert policies and tags == {2: "release"}
    for path in _copies(db, tmp_path):
        with Database(path) as copy:
            assert gc.load(copy).rules == policies
            assert gc.version_tags(copy, ref.oid) == tags
            copy.run_gc()
            assert [v.vid.serial for v in copy.versions(ref.oid)] == [2, 5, 6]


def test_copies_export_every_version_equal(tmp_path, any_db):
    """Branches, deleted versions, inline and blob payloads, a retention
    policy and tags: both copies export what the source does -- every
    version's payload, dprev and creation time, every high-water mark --
    and both pass the strict check."""
    db = any_db
    doc = db.pnew(Doc("small"))  # inline payload
    base = doc.pin()
    trunk = db.newversion(doc)
    trunk.text = "x" * 3000  # blob payload
    variant = db.newversion(base)
    variant.text = "variant " * 50  # a branch off the root
    tip = db.newversion(trunk)
    tip.text = "x" * 2990 + "edited"
    db.pdelete(trunk)  # an interior delete re-bases the tip
    part = db.pnew(Part("p", 1))
    db.pdelete(db.newversion(part))  # the newest deleted
    gc.set_retention(db, Doc, RetentionPolicy(keep_last_n=3))
    gc.tag_version(db, base, "first")
    exported = db.export()
    # Four versions of the two objects, and one each of the rule and the tag.
    assert sum(len(versions) for *_, versions in exported) == 6
    for path in _copies(db, tmp_path):
        with Database(path) as copy:
            assert copy.export() == exported
            assert copy.dprevious(copy.deref(tip.vid)).vid == base.vid
            assert check_database(copy, strict=True).ok
