"""Crash-matrix integration tests: fault injection x recovery.

Runs the full enumerated matrix (every failpoint, crash/torn/short/fsync
actions, plus double-crash-during-recovery scenarios) and asserts the
recovery contract at every point: strict integrity check clean, every
acknowledged commit durable, no loser effects visible.
"""

from __future__ import annotations

import pytest

from repro import Database, probe
from repro.core.store import VersionStore
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.tools import harness
from repro.tools.check import check_database
from repro.tools.crashmatrix import (
    Item,
    Scenario,
    enumerate_scenarios,
    fired_failpoints,
    run_scenario,
    scenarios,
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    assert probe.attached() is None, "a test leaked an active fault injector"
    probe.detach()


def test_full_crash_matrix(tmp_path):
    """The acceptance gate: >= 30 distinct failpoints fire, all recover."""
    report = harness.run(scenarios(["plain"]), tmp_path)
    failures = [r for r in report.results if not r.ok]
    detail = "\n".join(f"{r.name}: {r.problems}" for r in failures)
    assert not failures, f"crash-matrix failures:\n{detail}"
    fired = fired_failpoints(report)
    assert len(fired) >= 30, (
        f"only {len(fired)} distinct failpoints fired: {sorted(fired)}"
    )


def test_matrix_sees_payloads_swapped_at_open(tmp_path, monkeypatch):
    """The rows compare whole recovered histories, not newest values: an
    open that swaps each object's oldest and second-newest payloads
    (newest value, version count and strict check all intact) must be
    reported by some row of the full matrix."""
    load = VersionStore._load

    def swapping_load(self):
        load(self)
        for entry in self._table.values():
            nodes = list(entry.graph.walk_temporal())
            if len(nodes) > 2:
                nodes[0].data, nodes[-2].data = nodes[-2].data, nodes[0].data

    monkeypatch.setattr(VersionStore, "_load", swapping_load)
    report = harness.run(scenarios(["plain"]), tmp_path)
    assert any(not r.ok for r in report.results), "no row saw the swapped payloads"


def test_matrix_enumerates_every_action():
    scenarios = enumerate_scenarios()
    actions = {s.action for s in scenarios}
    assert actions == {"crash", "torn_write", "short_write", "fsync_error"}
    assert any(s.recovery_failpoint for s in scenarios), (
        "matrix must include double-crash-during-recovery scenarios"
    )
    # Smoke subset: still one scenario per (failpoint, action) pair.
    smoke = enumerate_scenarios(smoke=True)
    assert {(s.failpoint, s.action) for s in smoke} == {
        (s.failpoint, s.action) for s in scenarios
    }
    assert len(smoke) < len(scenarios)
    # ... plus the shared-content scenario, which shares its failpoint
    # with a mixed-workload one and must not be deduplicated away.
    assert [s.name for s in smoke if s.shared_content] == [
        "heap.replay_insert:crash:hit1:shared-content"
    ]


def test_savepoint_rollback_then_crash_before_commit(tmp_path):
    """rollback_to's compensation ops must win even when the transaction
    never commits: after a crash, neither the rolled-back write (888) nor
    the post-rollback write may survive -- the object reverts whole."""
    path = tmp_path / "db"
    # No context manager: after the simulated crash the database object is
    # a dead process image and must be abandoned, not closed.
    db = Database(path)
    ref = db.pnew(Item(tag=1, val=5))
    oid_value = ref.oid.value
    db.checkpoint()

    probe.attach(FaultInjector(FaultPlan().crash("wal.flush.pre_fsync", hit=1)))
    try:
        with pytest.raises(SimulatedCrash):
            with db.transaction():
                ref.val = 777
                sp = db.savepoint()
                ref.val = 888
                db.rollback_to(sp)
                # Push the compensation records to the WAL so the
                # crash (at commit's fsync) sees them on disk.
                db._log.flush()
                ref.val = 42
                # commit -> flush -> pre_fsync failpoint -> crash
    finally:
        probe.detach()

    with Database(path) as db:
        report = check_database(db, strict=True)
        assert report.ok, report.render()
        from repro.core.identity import Oid

        vref = db.deref(Oid(oid_value))
        assert vref.val == 5, "loser transaction effects survived the crash"


def test_double_crash_during_recovery(tmp_path):
    """Recovery interrupted by a second crash must still recover cleanly."""
    scenario = Scenario(
        "heap.update.post",
        "crash",
        hit=10,
        recovery_failpoint="heap.replay_insert",
    )
    result = run_scenario(scenario, tmp_path / "db")
    assert result.counts["fired"], "the workload fault never fired"
    assert result.counts["recovery_crashed"], "recovery never reached the second fault"
    assert result.ok, result.problems


def test_torn_wal_tail_is_discarded_with_losers(tmp_path):
    """A torn final WAL frame may only lose unacknowledged work."""
    scenario = Scenario("wal.flush.write", "torn_write", hit=4, keep=-2)
    result = run_scenario(scenario, tmp_path / "db")
    assert result.counts["fired"]
    assert result.ok, result.problems
