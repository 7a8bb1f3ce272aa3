"""Shard failure domains: kill, degrade gracefully, reattach online.

The contract under test (see ``ShardedDatabase.kill_shard`` /
``reattach_shard``):

* a killed shard takes *only its own keyspace* down -- operations homed
  on healthy shards keep serving, operations homed on the dead shard
  fail fast with the retryable :class:`ShardUnavailableError`;
* fan-outs (query, counts, cluster) answer from the up shards and say
  so in ``shard.health.skipped_fanouts``; creation skips dead shards;
* reattach replays the shard's WAL (the kill is abrupt -- no flush),
  re-runs in-doubt 2PC resolution, and revives *existing sessions* via
  generation-checked shard session caches;
* a cross-shard transaction left in doubt on the dead shard resolves to
  its durable verdict at reattach, never before.
"""

from __future__ import annotations

import shutil
import time

import pytest

from repro import PersistentObject, persistent, probe
from repro.errors import ShardUnavailableError
from repro.shard import SHARD_DOWN, SHARD_UP, ShardedDatabase
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash


@persistent(name="tests.shard.FoAcct")
class FoAcct(PersistentObject):
    def __init__(self, bal: int = 0) -> None:
        self.bal = bal


@pytest.fixture
def trio(tmp_path):
    """A 3-shard database with one account homed on each shard."""
    router = ShardedDatabase(tmp_path / "shards", nshards=3)
    refs = [router.pnew(FoAcct(bal=100 + i)) for i in range(3)]
    by_home = {router.placement.shard_of(r.oid): r.oid for r in refs}
    assert set(by_home) == {0, 1, 2}, "round-robin must cover every shard"
    router.checkpoint()
    yield router, by_home
    router.close()


def test_kill_isolates_one_failure_domain(trio):
    router, oids = trio
    router.kill_shard(1)
    assert router.shard_health() == {0: SHARD_UP, 1: SHARD_DOWN, 2: SHARD_UP}

    # Healthy shards keep serving reads and writes.
    for idx in (0, 2):
        ref = router.deref(oids[idx])
        with router.transaction():
            ref.bal += 1
        assert ref.bal == 101 + idx

    # The dead shard's keyspace fails fast with the typed, shard-tagged
    # error -- not a timeout, not a generic failure.
    t0 = time.perf_counter()
    with pytest.raises(ShardUnavailableError) as exc_info:
        router.deref(oids[1]).bal
    assert time.perf_counter() - t0 < 0.1
    assert exc_info.value.shard == 1

    with pytest.raises(ShardUnavailableError):
        with router.transaction():
            router.deref(oids[1]).bal = 0

    stats = router.stats()
    assert stats["shard.health.down"] == 1
    assert stats["shard.health.up"] == 2
    assert stats["shard.health.kills"] == 1
    assert stats["shard.health.failfast"] >= 2


def test_kill_is_idempotent_and_reattach_guards_state(trio):
    router, _ = trio
    router.kill_shard(2)
    router.kill_shard(2)  # no-op, not a double close
    assert router.stats()["shard.health.kills"] == 1
    with pytest.raises(ValueError):
        router.reattach_shard(0)  # not down
    router.reattach_shard(2)
    assert router.shard_health()[2] == SHARD_UP


def test_fanouts_degrade_to_up_shards(trio):
    router, oids = trio
    assert router.object_count() == 3
    router.kill_shard(0)
    # Fan-outs answer from the survivors instead of failing outright...
    assert router.object_count() == 2
    assert router.query("tests.shard.FoAcct").count() == 2
    assert router.stats()["shard.health.skipped_fanouts"] >= 2
    # ...and creation routes around the dead shard.
    for _ in range(3):
        ref = router.pnew(FoAcct(bal=1))
        assert router.placement.shard_of(ref.oid) != 0


def test_reattach_replays_the_wal(trio):
    """The kill is abrupt (no flush): a write committed just before it
    must come back after reattach, via the shard's own recovery."""
    router, oids = trio
    ref = router.deref(oids[1])
    with router.transaction():
        ref.bal = 555
    router.kill_shard(1)
    with pytest.raises(ShardUnavailableError):
        router.deref(oids[1]).bal
    router.reattach_shard(1)
    assert router.deref(oids[1]).bal == 555
    assert router.stats()["shard.health.reattaches"] == 1


def test_existing_session_survives_kill_and_reattach(trio):
    """A session that touched the shard before the kill keeps working
    after reattach: its cached shard session is generation-checked and
    rebuilt against the replacement database."""
    router, oids = trio
    sess = router.session(name="survivor")
    with sess.activate():
        assert router.deref(oids[1]).bal == 101
    router.kill_shard(1)
    with sess.activate():
        assert router.deref(oids[0]).bal == 100  # healthy domain unaffected
        with pytest.raises(ShardUnavailableError):
            router.deref(oids[1]).bal
    router.reattach_shard(1)
    with sess.activate():
        assert router.deref(oids[1]).bal == 101
    sess.close()


def test_mid_operation_kill_surfaces_retryable_error(trio):
    """An operation that passed the up-check and then raced kill_shard
    must surface the documented retryable ShardUnavailableError, not
    whatever low-level error the dying shard produced."""
    router, _ = trio

    def racing_op(db):
        # Simulate the race deterministically: the shard dies under an
        # operation that already cleared _check_up, and the closed file
        # handles surface as an arbitrary error.
        router.kill_shard(1)
        raise ValueError("I/O operation on closed file")

    with pytest.raises(ShardUnavailableError) as exc_info:
        router._on_shard(1, racing_op)
    assert exc_info.value.shard == 1
    assert isinstance(exc_info.value.__cause__, ValueError)
    # A genuine error on a healthy shard still passes through untouched.
    def unrelated_error(db):
        raise KeyError("x")

    with pytest.raises(KeyError):
        router._on_shard(0, unrelated_error)


def test_open_transaction_cannot_straddle_a_shard_restart(trio):
    """A transaction whose shard died (and reattached) under it must fail
    with the retryable error -- and none of its writes may survive.  The
    stale shard-local transaction was rolled back by recovery; silently
    continuing would let later ops escape the transaction (an autocommit
    write on the replacement shard instance)."""
    router, oids = trio
    sess = router.session(name="straddler")

    # Re-touching the restarted shard inside the transaction fails fast.
    with pytest.raises(ShardUnavailableError) as exc_info:
        with sess.activate():
            with router.transaction():
                router.deref(oids[1]).bal = 1
                router.kill_shard(1)
                router.reattach_shard(1)
                router.deref(oids[1]).bal = 2
    assert exc_info.value.shard == 1
    assert sess.txn is None, "failed transaction left attached to session"
    assert router.deref(oids[1]).bal == 101, "write escaped the transaction"

    # Committing without re-touching must fail the same way.
    with pytest.raises(ShardUnavailableError):
        with sess.activate():
            with router.transaction():
                router.deref(oids[1]).bal = 3
                router.kill_shard(1)
                router.reattach_shard(1)
    assert sess.txn is None
    assert router.deref(oids[1]).bal == 101

    # The session is immediately reusable for the retry.
    with sess.activate():
        with router.transaction():
            router.deref(oids[1]).bal = 4
    assert router.deref(oids[1]).bal == 4
    sess.close()


def test_reattach_tolerates_live_traffic_elsewhere(trio):
    """Online reattach runs in-doubt resolution while other shards carry
    live transactions; its opportunistic checkpoint must skip a busy
    shard, not blow up the reattach."""
    router, oids = trio
    router.kill_shard(1)
    sess = router.session(name="busy")
    with sess.activate():
        gtxn = router.begin()
        router.deref(oids[0]).bal = 777  # active local txn on shard 0
        router.reattach_shard(1)         # must not require quiescence
        gtxn.commit()
    sess.close()
    assert router.shard_health()[1] == SHARD_UP
    assert router.deref(oids[0]).bal == 777


def test_unreachable_coordinator_defers_presumed_abort(trio):
    """Two shards down: reattaching the prepared participant while its
    *coordinator* shard is still down must leave the participant in
    doubt -- the commit verdict may be sitting in the unreachable WAL,
    and presumed abort would roll back a committed transaction.  Once
    the coordinator returns, the verdict commits the deferred half."""
    router, oids = trio
    # Phase two runs in shard order on the calling thread: commit 0,
    # crash before 1.
    a, b = router.deref(oids[0]), router.deref(oids[1])
    planter = router.session(name="planter")
    injector = probe.attach(FaultInjector(FaultPlan().crash("shard.2pc.post_ack", hit=1)))
    try:
        with planter.activate():
            with pytest.raises(SimulatedCrash):
                with router.transaction():
                    a.bal = 1
                    b.bal = 201
        assert injector.fired
    finally:
        probe.detach()
    planter.close()
    # Shard 0 (lowest writer index) coordinated and committed; shard 1
    # is prepared and in doubt.  Take BOTH down: the verdict is now
    # unreachable.
    router.kill_shard(1)
    router.kill_shard(0)

    report = router.reattach_shard(1)
    # No verdict reachable and the coordinator is down: the participant
    # must stay in doubt, not presumed-abort.
    assert report.deferred and report.deferred[0][0] == 1
    assert not report.committed and not report.aborted
    assert router.shards[1].in_doubt_txns(), (
        "participant resolved while its coordinator's verdict was unreachable"
    )

    # Coordinator returns: full resolution finds the durable verdict and
    # commits the deferred half -- both halves of the acked write exist.
    report = router.reattach_shard(0)
    assert any(idx == 1 for idx, _ in report.committed)
    assert router.deref(oids[0]).bal == 1
    assert router.deref(oids[1]).bal == 201
    assert not router.shards[0].coordinator_decisions()
    for shard in router.shards:
        assert not shard.in_doubt_txns()


def test_in_doubt_transaction_resolves_at_reattach(trio):
    """A cross-shard 2PC transaction whose verdict was durable but whose
    second participant never heard it: kill that participant's shard,
    verify the verdict is *retained* while it is down, then reattach and
    verify resolution commits both halves."""
    router, oids = trio
    # Phase two runs in shard order on the calling thread: shard 0
    # commits before the failpoint strands shard 1 prepared.
    a, b = router.deref(oids[0]), router.deref(oids[1])
    planter = router.session(name="planter")
    injector = probe.attach(FaultInjector(FaultPlan().crash("shard.2pc.post_ack", hit=1)))
    try:
        with planter.activate():
            with pytest.raises(SimulatedCrash):
                with router.transaction():
                    a.bal = 1
                    b.bal = 201
        assert injector.fired
    finally:
        probe.detach()
    # The "crashed" client's session detaches its decided transaction
    # (it must never abort it -- the verdict is durable).
    planter.close()
    # Shard 0 (coordinator, lower index) committed; shard 1 is prepared
    # and in doubt.  Kill it before anyone resolves anything.
    router.kill_shard(1)
    # The durable verdict must survive while its participant is down.
    assert router.shards[0].coordinator_decisions(), (
        "verdict forgotten while a prepared participant's shard is down"
    )
    report = router.reattach_shard(1)
    assert any(idx == 1 for idx, _ in report.committed)
    assert router.deref(oids[0]).bal == 1
    assert router.deref(oids[1]).bal == 201
    # All shards up again: resolution may now forget the verdict.
    assert not router.shards[0].coordinator_decisions()
    for shard in router.shards:
        assert not shard.in_doubt_txns()


def _held(router) -> int:
    return router.stats()["shard.2pc.decisions_held"]


def test_online_reattach_keeps_the_verdict_of_a_commit_in_flight(
    trio, tmp_path, monkeypatch
):
    """The last down shard returns -- full online resolution -- while
    another session's cross-shard commit sits between its durable verdict
    and its participants' COMMITs.  Resolution used to forget every
    verdict it found, that one included: a crash once the COORD_END
    reached disk and before a participant's COMMIT did resolved that
    participant by presumed abort while its sibling had committed."""
    router, oids = trio
    router.kill_shard(2)
    a, b = router.deref(oids[0]), router.deref(oids[1])
    image = tmp_path / "image"
    real_fire = probe.point

    def fire(name, *args, **kwargs):
        if name == "shard.2pc.post_decision":
            router.reattach_shard(2)
        elif name == "shard.2pc.post_ack" and not image.exists():
            shutil.copytree(router.path, image)  # the machine dies here
        return real_fire(name, *args, **kwargs)

    monkeypatch.setattr(probe, "point", fire)
    with router.transaction():
        a.bal = 1
        b.bal = 201
    monkeypatch.setattr(probe, "point", real_fire)
    assert image.exists(), "shard.2pc.post_ack never fired"

    crashed = ShardedDatabase(image)
    try:
        bals = (crashed.deref(oids[0]).bal, crashed.deref(oids[1]).bal)
        assert bals == (1, 201), f"torn 2PC outcome after the crash: {bals}"
        for shard in crashed.shards:
            assert not shard.in_doubt_txns()
            assert not shard.coordinator_decisions()
    finally:
        crashed.close()
    assert _held(router) == 1, "the live commit's verdict was released under it"


def test_shard_killed_with_a_buffered_commit_resolves_from_the_held_verdict(trio):
    """A participant's COMMIT is appended, not forced: a shard killed
    right after an acknowledged cross-shard commit comes back *in doubt*,
    and the verdict -- held because that COMMIT never became durable --
    resolves it commit."""
    router, oids = trio
    a, b = router.deref(oids[0]), router.deref(oids[1])
    with router.transaction():
        a.bal = 1
        b.bal = 201
    assert _held(router) == 1
    router.kill_shard(1)  # the buffered COMMIT dies with the shard
    # A later commit's sweep finds shard 0 forced past its COMMIT (the
    # write below does that) but must keep holding for the dead shard.
    with router.transaction():
        a.bal = 2
    with router.transaction():
        a.bal = 1
    assert _held(router) == 1
    assert router.shards[0].coordinator_decisions(), (
        "verdict released while a participant's COMMIT was not durable"
    )

    report = router.reattach_shard(1)
    assert [idx for idx, _ in report.committed] == [1]
    assert (router.deref(oids[0]).bal, router.deref(oids[1]).bal) == (1, 201)
    assert _held(router) == 0
    for shard in router.shards:
        assert not shard.in_doubt_txns()
        assert not shard.coordinator_decisions()
