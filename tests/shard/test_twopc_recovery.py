"""Crash-window recovery for cross-shard 2PC.

One cross-shard transfer is killed at each protocol window by the fault
injector, then the whole sharded database is reopened (running per-shard
WAL recovery and router-level in-doubt resolution).  The contract:

* crash *before* the coordinator's decision record is durable ->
  presumed abort: both legs roll back, nothing half-applied;
* crash *at or after* the decision -> the verdict wins: both legs
  survive, recovery completing what the dead process could not -- a
  participant's COMMIT is appended, never forced, so after the decision
  *both* legs usually come back in doubt and are committed from the
  verdict;
* either way, no participant stays in-doubt, no verdict record
  lingers, and the reopened database accepts new cross-shard work.

These are the same windows the crash matrix sweeps
(``python -m repro.tools.crashmatrix --scenario twopc``); here each window gets
a named, single-purpose test so a regression points at the exact
protocol step that broke.
"""

from __future__ import annotations

import pytest

from repro import PersistentObject, persistent, probe
from repro.core.database import Database
from repro.errors import TransactionStateError
from repro.shard import ShardedDatabase
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.storage.wal import COMMIT, LogManager
from repro.tools.check import check_database


@persistent(name="tests.shard.Acct")
class Acct(PersistentObject):
    def __init__(self, bal: int = 0) -> None:
        self.bal = bal


#: Windows where the commit verdict is already durable when the crash
#: hits: recovery must COMMIT the in-flight transfer.  Everywhere
#: earlier it must presume abort.
DECIDED = {
    "shard.2pc.post_decision",
    "shard.2pc.post_ack",
    "shard.2pc.pre_forget",
}

WINDOWS = [
    ("shard.2pc.pre_prepare", 1),
    ("shard.2pc.post_prepare", 1),  # the remote participant prepared (forced)
    ("shard.2pc.post_prepare", 2),  # + the coordinator's PREPARE, buffered only
    ("shard.2pc.pre_decision", 1),
    ("shard.2pc.post_decision", 1),
    ("shard.2pc.post_ack", 1),  # one COMMIT appended, none forced
    ("shard.2pc.post_ack", 2),  # both appended, none forced
    ("shard.2pc.pre_forget", 1),  # a later commit's sweep releasing the verdict
]


def _crash_transfer(path, failpoint, hit):
    """Seed two accounts on different shards, crash a transfer at the
    window, and return their oids (home shards 0 and 1)."""
    router = ShardedDatabase(path, nshards=3)
    src = router.pnew(Acct(bal=100))
    dst = router.pnew(Acct(bal=100))
    oids = (src.oid, dst.oid)
    router.checkpoint()
    attempt = (99, 101)
    if failpoint == "shard.2pc.pre_forget":
        # The verdict outlives its commit: it is forgotten by the sweep at
        # the top of a later commit, once both participants' logs have
        # been forced past their COMMIT records.  The crash lands there,
        # inside a second transfer that has logged nothing durable yet.
        with router.transaction():
            src.bal, dst.bal = attempt
        for shard in router.shards:
            shard.flush_log()
        attempt = (98, 102)
    injector = probe.attach(FaultInjector(FaultPlan().crash(failpoint, hit=hit)))
    try:
        with pytest.raises(SimulatedCrash):
            with router.transaction():
                src.bal, dst.bal = attempt
        assert injector.fired, f"{failpoint} hit {hit} never fired"
    finally:
        probe.detach()
    return oids


@pytest.mark.parametrize(
    "failpoint,hit", WINDOWS, ids=[f"{fp.split('.')[-1]}-hit{h}" for fp, h in WINDOWS]
)
def test_crash_window_recovers_atomically(tmp_path, failpoint, hit):
    path = tmp_path / "shards"
    src_oid, dst_oid = _crash_transfer(path, failpoint, hit)

    router = ShardedDatabase(path)
    try:
        bals = (router.deref(src_oid).bal, router.deref(dst_oid).bal)
        if failpoint in DECIDED:
            assert bals == (99, 101), "durable verdict: transfer must survive"
            assert not router.last_resolution.aborted
        else:
            assert bals == (100, 100), "no verdict: presumed abort"
            assert not router.last_resolution.committed
        assert sum(bals) == 200, "money is conserved either way"
        # Resolution left nothing behind, on any shard.
        for idx, shard in enumerate(router.shards):
            assert not shard.in_doubt_txns(), f"shard {idx} still in doubt"
            assert not shard.coordinator_decisions(), f"shard {idx} holds verdicts"
            assert not check_database(shard, strict=True).problems
        # The survivor takes new cross-shard work immediately.
        s, d = router.deref(src_oid), router.deref(dst_oid)
        with router.transaction():
            s.bal -= 5
            d.bal += 5
        assert s.bal + d.bal == 200
    finally:
        router.close()


def test_resolution_is_idempotent_under_double_crash(tmp_path):
    """Crash after the verdict is durable, then crash again during the
    recovery open itself: the third, clean open must still deliver the
    committed transfer exactly once."""
    path = tmp_path / "shards"
    src_oid, dst_oid = _crash_transfer(path, "shard.2pc.post_decision", 1)

    probe.attach(FaultInjector(FaultPlan().crash("wal.flush.pre_fsync", hit=1)))
    try:
        with pytest.raises(SimulatedCrash):
            ShardedDatabase(path)
    finally:
        probe.detach()

    router = ShardedDatabase(path)
    try:
        bals = (router.deref(src_oid).bal, router.deref(dst_oid).bal)
        assert bals == (99, 101)
        for shard in router.shards:
            assert not shard.in_doubt_txns()
            assert not shard.coordinator_decisions()
    finally:
        router.close()


def test_in_doubt_participant_blocks_nothing_else(tmp_path):
    """An unrelated single-shard write committed before the crash is
    untouched by resolution of the in-flight cross-shard transfer."""
    path = tmp_path / "shards"
    router = ShardedDatabase(path, nshards=3)
    bystander = router.pnew(Acct(bal=7))
    src = router.pnew(Acct(bal=100))
    dst = router.pnew(Acct(bal=100))
    b_oid, s_oid, d_oid = bystander.oid, src.oid, dst.oid
    router.checkpoint()
    probe.attach(FaultInjector(FaultPlan().crash("shard.2pc.post_prepare", hit=2)))
    try:
        with pytest.raises(SimulatedCrash):
            with router.transaction():
                src.bal = 1
                dst.bal = 199
    finally:
        probe.detach()

    reopened = ShardedDatabase(path)
    try:
        assert reopened.deref(b_oid).bal == 7
        assert reopened.deref(s_oid).bal == 100
        assert reopened.deref(d_oid).bal == 100
        # Only the remote participant's PREPARE was ever forced; the
        # coordinator shard's rides the decision flush that never ran, so
        # its branch is a plain WAL loser, not an in-doubt participant.
        remote = reopened.placement.shard_of(d_oid)
        assert [idx for idx, _ in reopened.last_resolution.aborted] == [remote]
    finally:
        reopened.close()


# -- liveness without a crash: retry and direct-open safety -------------------


def test_phase_two_failure_commit_retry_completes(tmp_path, monkeypatch):
    """A commit that fails *after* the decision is durable leaves the
    global transaction active and decided; retrying the commit must only
    re-deliver phase two -- never re-enter phase one, never abort."""
    router = ShardedDatabase(tmp_path / "shards", nshards=3)
    try:
        src = router.pnew(Acct(bal=100))
        dst = router.pnew(Acct(bal=100))
        router.checkpoint()

        gtxn = router.begin()
        src.bal = 99
        dst.bal = 101
        # Phase two forces nothing, so the one way it can fail is the
        # COMMIT append itself.  Fail the second participant's, once.
        real_append = LogManager.append
        failed = []

        def append_failing_once(log, record):
            if record.kind == COMMIT and log is router.shards[1]._log and not failed:
                failed.append(record)
                raise OSError("injected: COMMIT append failed")
            return real_append(log, record)

        monkeypatch.setattr(LogManager, "append", append_failing_once)
        with pytest.raises(OSError):
            gtxn.commit()
        assert failed, "the phase-two append error never fired"

        # The verdict is durable and the transaction is still alive...
        assert gtxn.decided
        assert gtxn.state == "active"
        # ...so a rollback is refused (it would contradict the verdict)...
        with pytest.raises(TransactionStateError, match="decided"):
            gtxn.abort()
        # ...and the retry finishes the job exactly once.
        gtxn.commit()
        assert gtxn.state == "committed"
        assert (src.bal, dst.bal) == (99, 101)
        # The verdict is held until both COMMITs are durable; the next
        # quiescent point forces them and releases it.
        assert router.stats()["shard.2pc.decisions_held"] == 1
        router.checkpoint()
        assert router.stats()["shard.2pc.decisions_held"] == 0
        for idx, shard in enumerate(router.shards):
            assert not shard.in_doubt_txns(), f"shard {idx} still in doubt"
            assert not shard.coordinator_decisions(), f"shard {idx} holds verdicts"
    finally:
        router.close()


def test_direct_open_with_retained_wal_never_reuses_txids(tmp_path):
    """A shard reopened with in-doubt state keeps its WAL; fresh txids
    must clear every retained txid or a later recovery could replay a
    pre-crash loser's records as a new winner's."""
    path = tmp_path / "shards"
    _crash_transfer(path, "shard.2pc.post_prepare", 2)

    # Open the remote participant directly (the coordinator shard's
    # PREPARE was never forced), bypassing router-level resolution --
    # exactly the window where a colliding txid could do damage.
    shard = Database(path / "shard-01")
    try:
        assert shard.in_doubt_txns(), "precondition: participant is in doubt"
        report = shard.last_recovery
        assert report is not None and report.max_txid > 0
        probe = shard.begin()
        try:
            assert probe.txid > report.max_txid
        finally:
            probe.abort()
    finally:
        shard.close()

    # The router still resolves the in-doubt transfer on a full reopen.
    router = ShardedDatabase(path)
    try:
        for shard in router.shards:
            assert not shard.in_doubt_txns()
            assert not shard.coordinator_decisions()
    finally:
        router.close()


@persistent(name="tests.shard.Page")
class Page(PersistentObject):
    def __init__(self, body: str = "") -> None:
        self.body = body


@pytest.mark.parametrize("commit", [False, True], ids=["abort", "commit"])
def test_payload_displaced_by_an_in_doubt_participant_survives_the_open(tmp_path, commit):
    """The blob index is derived from the payload records, so a body a
    prepared-but-undecided participant overwrote counts zero after a
    crash -- exactly like a crashed put's orphan.  An open that unlinked
    unreferenced files would destroy the very content an abort verdict
    must revive; while a participant is in doubt they are candidates and
    nothing is unlinked."""
    path = tmp_path / "shards"
    old, new = "o" * 2048, "n" * 2048
    router = ShardedDatabase(path, nshards=3)
    first, second = router.pnew(Page(old)), router.pnew(Page(old + "2"))
    router.checkpoint()
    probe.attach(FaultInjector(FaultPlan().crash("shard.2pc.post_prepare", hit=2)))
    try:
        with pytest.raises(SimulatedCrash):
            with router.transaction():
                first.body = new
                second.body = new + "2"
    finally:
        probe.detach()

    # second's home, below the router: the remote participant, the one
    # whose PREPARE is forced before any verdict exists.
    shard = Database(path / "shard-01")
    try:
        (txid,) = shard.in_doubt_txns()
        store = shard.store
        zero = [key for key, (count, _size) in store.blob_entries().items() if not count]
        assert len(zero) == 1, "the displaced body is known and counts zero"
        (old_key,) = zero
        assert old_key in store.gc_candidates() and store.blobs.exists(old_key)
        assert shard.reclaim_blobs() == (0, 0, 1), "refused while in doubt"

        shard.resolve_in_doubt(txid, commit=commit)
        assert shard.deref(second.oid).body == (new + "2" if commit else old + "2")
        assert not check_database(shard, strict=True).problems
        shard.pnew(Page("tick"))  # any commit: candidates wait for the epoch
        # Commit: the old body is the garbage.  Abort: it is live again,
        # and the rolled-back put of the new body is.
        assert store.blob_refcount(old_key) == (0 if commit else 1)
        unlinked, _freed, remaining = shard.reclaim_blobs()
        assert (unlinked, remaining) == (1, 0)
        assert store.blobs.exists(old_key) == (not commit)
        assert not check_database(shard, strict=True).problems
    finally:
        shard.close()
