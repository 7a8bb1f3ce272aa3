"""GC crash-matrix integration tests: fault injection inside the collector.

Runs the blob-reclaim matrix (every ``gc.*`` protocol window, plus the
double-crash-during-repair scenarios) and asserts the collector's
contract at every point: strict integrity check clean, every retained
version durable with its exact payload, no blob content leaked, and the
post-recovery collector converges to exactly the retention keep set.
"""

from __future__ import annotations

import pytest

from repro import Database, probe
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.storage.serialization import decode
from repro.tools import harness
from repro.tools.check import check_database
from repro.tools.crashmatrix import (
    _GC_CRASH_HITS,
    _GC_POLICY,
    Scenario,
    _build_gc_history,
    _GcLedger,
    _stored_inline,
    enumerate_gc_scenarios,
    fired_failpoints,
    run_scenario,
    scenarios,
)
from repro.verify.model import history


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    assert probe.attached() is None, "a test leaked an active fault injector"
    probe.detach()


def test_full_gc_crash_matrix(tmp_path):
    """The acceptance gate: every reclaim window fires and recovers."""
    report = harness.run(scenarios(["gc"]), tmp_path)
    failures = [r for r in report.results if not r.ok]
    detail = "\n".join(f"{r.name}: {r.problems}" for r in failures)
    assert not failures, f"gc crash-matrix failures:\n{detail}"
    fired = fired_failpoints(report)
    assert fired >= set(_GC_CRASH_HITS), (
        f"unfired reclaim windows: {sorted(set(_GC_CRASH_HITS) - fired)}"
    )


def test_gc_matrix_enumerates_double_crash_repair():
    scenarios = enumerate_gc_scenarios()
    doubles = [s for s in scenarios if s.recovery_failpoint is not None]
    assert {s.recovery_failpoint for s in doubles} == {
        "gc.repair.pre",
        "gc.repair.post",
        "blobs.append",
    }, "the matrix must interrupt repair before and after its work, and payload redo"
    # Smoke subset: still every workload failpoint, plus one double crash.
    smoke = enumerate_gc_scenarios(smoke=True)
    assert {s.failpoint for s in smoke} >= set(_GC_CRASH_HITS)
    assert any(s.recovery_failpoint for s in smoke)
    assert len(smoke) < len(scenarios)


def test_smoke_subset_carries_the_pack_file_windows():
    """CI's ``crashmatrix --scenario gc --smoke`` runs one of each new row: a torn
    frame append, the copy-forward / retire windows, the commit-path pacer
    crashed inside a 2PC participant's phase-two commit, and a hole in
    front of acknowledged payloads in the unsynced pack tail."""
    smoke = enumerate_gc_scenarios(smoke=True)
    assert any(s.failpoint == "blobs.append" and s.action == "torn_write" for s in smoke)
    assert {"blobs.compact.copied", "blobs.compact.retired"} <= {
        s.failpoint for s in smoke
    }
    assert sorted(s.name for s in smoke if s.rewrite) == [
        "gc.unlink.post:crash:hit1:rewrite2",
        "wal.flush.pre_write:crash:hit11:hole:rewrite1",
    ]


def test_pacer_rows_cross_every_reclaim_window(tmp_path):
    """The rewrite rows run the 2PC transfer workload with blob-sized
    accounts and no collector: every reclaim window is crossed on one
    shard, and the crashed pacer's commit -- durable before the pacer ran
    -- survives recovery whole (``_DECIDED_WINDOWS``)."""
    rows = [s for s in enumerate_gc_scenarios() if s.rewrite]
    assert {s.failpoint for s in rows if s.rewrite == 1} >= set(_GC_CRASH_HITS)
    result = run_scenario(next(s for s in rows if s.rewrite == 2), tmp_path / "db")
    assert result.counts["fired"] and result.counts["crashed"], result.counts
    assert result.ok, result.problems


def test_crash_between_copy_forward_and_retire_costs_only_dead_space(tmp_path):
    """The machine dies with a pack's survivors copied forward and the
    pack not yet deleted: both packs hold every key.  The open keeps the
    copies, the whole old pack is dead space, nothing is lost, and the
    next reclaim deletes it.  (Redo also puts back the payloads the
    tombstoned batches had unlinked, and repair unlinks them again.)"""
    path = tmp_path / "db"
    ledger = _GcLedger()
    db = _build_gc_history(path, ledger)
    probe.attach(FaultInjector(FaultPlan().crash("blobs.compact.copied")))
    try:
        with pytest.raises(SimulatedCrash):
            for _ in range(6):
                db.run_gc(batch_limit=5)
    finally:
        probe.detach()
    old_pack = path / "blobs" / "pack-000001"
    reopened = Database(path, policy=_GC_POLICY)
    try:
        stats = reopened.stats()
        assert stats["blobs.packs"] == 2
        first = reopened.store.blobs._packs[0]
        assert first.path == str(old_pack) and first.live == 0  # all dead space
        report = check_database(reopened, strict=True)
        assert report.ok, report.render()
        for _ in range(8):
            if not reopened.run_gc(batch_limit=64).candidates_remaining:
                break
        reopened.checkpoint()
        assert not old_pack.exists()
        # Every retained version, whole: payload, dprev and serial mark.
        assert history(reopened.export(), decode) == ledger.retained().export()
        assert check_database(reopened, strict=True).ok
    finally:
        reopened.close()


def test_double_crash_during_gc_repair(tmp_path):
    """A crash mid-reclaim, then a crash mid-repair: the third open must
    repair again (tombstones are still in the WAL) and leak nothing."""
    scenario = Scenario(
        "gc.unlink.post", "crash", hit=3, recovery_failpoint="gc.repair.pre",
        matrix="gc",
    )
    result = run_scenario(scenario, tmp_path / "db")
    assert result.counts["fired"], "the reclaim fault never fired"
    assert result.counts["recovery_crashed"], "repair never reached the second fault"
    assert result.ok, result.problems


def test_gc_workload_rebases_across_the_inline_threshold(tmp_path):
    """The matrix's mixed objects do what the scenarios rely on: pruning
    serial 2 moves the re-based serial 3 inline -> blob store in one
    object and blob store -> inline in the other, and each object holds
    records on both sides before and after."""
    ledger = _GcLedger()
    db = _build_gc_history(tmp_path / "db", ledger)
    try:
        assert sorted(ledger.mixed.values()) == [False, True]

        def sides(oid):
            return {v.vid.serial: _stored_inline(db, v.vid) for v in db.versions(oid)}

        for oid, to_inline in ledger.mixed.items():
            before = sides(oid)
            assert before[3] != to_inline
            assert set(before.values()) == {True, False}
        for _ in range(8):
            if not db.run_gc(batch_limit=64).candidates_remaining:
                break
        else:
            pytest.fail("the collector did not converge")
        retained = ledger.retained()
        for oid, to_inline in ledger.mixed.items():
            after = sides(oid)
            assert list(after) == retained.serials(oid)
            assert after[3] == to_inline
            assert set(after.values()) == {True, False}
        # The re-based versions read back whole, on both sides.
        assert history(db.export(), decode) == retained.export()
    finally:
        db.close()
