"""Logged payloads: a large payload rides in the log record that exposes it.

A put that appends a pack frame logs the body as a ``PAYLOAD`` record
first, so the one log fsync of a commit makes its payloads durable; the
packs are forced only when the log is about to forget them (the
checkpoint's write-back), when a pack is sealed, and by the reclaim step.
Recovery puts every logged body back -- losers' included -- before it
replays the heaps.  Each test below crashes by abandoning the database
without ``close`` and cutting (or holing) the pack bytes no fsync covered,
which is what an unkind page cache may lose.
"""

from __future__ import annotations

import os

import pytest

from repro import Database, probe
from repro.core import database as database_module
from repro.errors import BlobMissingError
from repro.shard import ShardedDatabase
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.storage.wal import ABORT_END, COMMIT, PAYLOAD
from repro.tools.check import check_database
from repro.tools.crashmatrix import _lose_unsynced
from repro.tools.inspect import inspect_database
from tests.conftest import Doc

BODY = 2048


def _text(tag: str) -> str:
    return tag.ljust(BODY, "x")


@pytest.fixture(autouse=True)
def _clean_injector():
    probe.detach()
    yield
    probe.detach()


def test_a_large_payload_commit_forces_one_file(tmp_path, monkeypatch):
    """One fsync, of the log, for a blob-backed autocommit -- the pack
    write rides in the ``PAYLOAD`` record of that flush."""
    with Database(tmp_path / "db") as db:
        # Enough live bodies that one displaced body does not pace a reclaim.
        ref, *_ = [db.pnew(Doc(_text(f"a{i}"))) for i in range(3)]
        synced: list[str] = []
        real_fsync = os.fsync

        def fsync(fd: int) -> None:
            synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        before = db.stats()
        ref.text = _text("b")
        after = db.stats()
        monkeypatch.undo()
        assert synced == ["wal.log"]
        assert after["wal.payload_records"] - before["wal.payload_records"] == 1
        assert after["wal.payload_bytes"] - before["wal.payload_bytes"] > BODY
        assert after["blobs.syncs"] == before["blobs.syncs"]
        assert after["blobs.unsynced_bytes"] > before["blobs.unsynced_bytes"]


def test_a_dedup_hit_logs_no_payload(tmp_path):
    with Database(tmp_path / "db") as db:
        db.pnew(Doc(_text("same")))
        before = db.stats()["wal.payload_records"]
        db.pnew(Doc(_text("same")))
        assert db.stats()["wal.payload_records"] == before
        assert db.stats()["blobs.dedup_hits"] == 1


def _dedup_against_a_loser(path):
    """T1 stores body X and is still open at the crash; T2 stores X too
    (a dedup hit: no frame, no ``PAYLOAD`` of its own) and commits, which
    also makes T1's ``PAYLOAD`` durable.  The crash cuts X's frame."""
    db = Database(path)
    a, b = db.pnew(Doc(_text("a"))), db.pnew(Doc(_text("b")))
    for i in range(4):  # bystanders: two displaced bodies pace no reclaim
        db.pnew(Doc(_text(f"c{i}")))
    db.checkpoint()
    shared = _text("shared")
    session = db.session("loser")
    with session.activate():
        loser = db.begin()
        a.text = shared
    b.text = shared
    assert db.stats()["blobs.dedup_hits"] == 1
    assert db.stats()["blobs.unsynced_bytes"] > BODY
    _lose_unsynced(db, hole=False)
    return a.oid, b.oid, loser.txid, shared


def test_a_winner_keeps_the_bytes_it_deduped_from_a_loser(tmp_path):
    path = tmp_path / "db"
    a, b, loser, shared = _dedup_against_a_loser(path)
    with Database(path) as db:
        assert db.last_recovery.loser_txids == (loser,)
        assert db.deref(b).text == shared
        assert db.deref(a).text == _text("a")
        report = check_database(db, strict=True)
        assert report.ok, report.render()


def test_skipping_losers_payloads_at_redo_loses_the_winners_bytes(
    tmp_path, monkeypatch
):
    """The counterfactual: redo that skips loser transactions' ``PAYLOAD``
    records leaves the committed winner pointing at nothing."""
    path = tmp_path / "db"
    _a, b, loser, _shared = _dedup_against_a_loser(path)
    real_recover = database_module.recover

    def recover_winners_only(log, resolver, redo_payload):
        records = list(log.records())
        finished = {r.txid for r in records if r.kind in (COMMIT, ABORT_END)}
        skipped = {
            r.payload for r in records if r.kind == PAYLOAD and r.txid not in finished
        }
        assert skipped, "the scenario must log a loser's payload"
        return real_recover(
            log, resolver, lambda body: None if body in skipped else redo_payload(body)
        )

    monkeypatch.setattr(database_module, "recover", recover_winners_only)
    with Database(path) as db:
        assert db.last_recovery.loser_txids == (loser,)
        with pytest.raises(BlobMissingError):
            db.deref(b).text
        assert not check_database(db, strict=True).ok


def test_a_hole_in_the_active_pack_is_filled_from_the_log(tmp_path):
    """The first unsynced frame reads as zeros and the frames after it are
    intact: the open scan stops at the hole and cuts everything after it,
    and redo puts every acknowledged payload back."""
    path = tmp_path / "db"
    db = Database(path)
    db.checkpoint()
    texts = [_text(f"t{i}") for i in range(4)]
    oids = [db.pnew(Doc(text)).oid for text in texts]
    assert _lose_unsynced(db, hole=True)  # valid frames follow the hole
    with Database(path) as db:
        assert db.last_recovery.payloads_redone == len(texts)
        assert db.stats()["blobs.frames_appended"] == len(texts)
        assert [db.deref(oid).text for oid in oids] == texts
        report = check_database(db, strict=True)
        assert report.ok, report.render()


@pytest.mark.parametrize("failpoint", ["blobs.sync.fsync", "wal.truncate.pre"])
def test_a_crash_inside_the_write_back_keeps_the_logged_payloads(tmp_path, failpoint):
    """Before the write-back's pack fsync the log still holds the payloads
    the cut pack tail lost; after it, and before the truncate, the packs
    hold them and redo finds every key already there."""
    path = tmp_path / "db"
    db = Database(path)
    texts = [_text(f"w{i}") for i in range(3)]
    oids = [db.pnew(Doc(text)).oid for text in texts]
    probe.attach(FaultInjector(FaultPlan().crash(failpoint)))
    with pytest.raises(SimulatedCrash):
        db.checkpoint()
    probe.detach()
    cut = db.stats()["blobs.unsynced_bytes"]
    assert (cut > 0) == (failpoint == "blobs.sync.fsync")
    _lose_unsynced(db, hole=False)
    with Database(path) as db:
        assert db.last_recovery.payloads_redone == len(texts)
        appended = db.stats()["blobs.frames_appended"]
        assert appended == (len(texts) if cut else 0)
        assert [db.deref(oid).text for oid in oids] == texts
        assert check_database(db, strict=True).ok


def test_a_crash_during_payload_redo_is_redone(tmp_path):
    path = tmp_path / "db"
    db = Database(path)
    db.checkpoint()
    texts = [_text(f"r{i}") for i in range(3)]
    oids = [db.pnew(Doc(text)).oid for text in texts]
    _lose_unsynced(db, hole=False)
    probe.attach(FaultInjector(FaultPlan().crash("blobs.append", hit=2)))
    with pytest.raises(SimulatedCrash):
        Database(path)
    probe.detach()
    with Database(path) as db:
        assert db.last_recovery.payloads_redone == len(texts)
        assert [db.deref(oid).text for oid in oids] == texts
        assert check_database(db, strict=True).ok


def test_the_counters_reach_the_router_and_inspect(tmp_path):
    with ShardedDatabase(tmp_path / "r", nshards=2) as router:
        for i in range(4):
            router.pnew(Doc(_text(f"s{i}")))
        stats = router.stats()
        assert stats["wal.payload_records"] == 4
        assert stats["wal.payload_bytes"] > 4 * BODY
        unsynced = stats["blobs.unsynced_bytes"]
        assert unsynced > 4 * BODY
        summary = inspect_database(router.shards[0])
        assert "unsynced byte(s) covered by the log" in summary.render()
        router.checkpoint()
        assert router.stats()["blobs.unsynced_bytes"] == 0
