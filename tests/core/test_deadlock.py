"""Wait-for-graph deadlock detection: cycles resolve by victim, not timeout.

The old scheme resolved deadlocks only by letting one waiter burn its
whole ``lock_timeout``.  The detector must instead find the cycle the
instant it closes, abort exactly one victim (least work, then youngest),
and let the survivors proceed -- all in a small fraction of the timeout.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.transactions import EXCLUSIVE, SHARED, LockManager
from repro.errors import DeadlockError, LockTimeoutError

from tests.conftest import Part

#: Generous deadline: detection must resolve way before any fraction of it.
TIMEOUT = 4.0


@pytest.fixture
def manager() -> LockManager:
    mgr = LockManager(timeout=TIMEOUT)
    yield mgr
    mgr.assert_quiescent()


def test_two_txn_cycle_detected_fast(manager):
    """A -> B -> A across two resources resolves in << half the timeout."""
    manager.acquire(1, "A", EXCLUSIVE)
    manager.acquire(2, "B", EXCLUSIVE)
    outcome = {}

    def t1():
        try:
            manager.acquire(1, "B", EXCLUSIVE)  # blocks on 2
            outcome[1] = "granted"
        except DeadlockError as exc:
            outcome[1] = exc
            manager.release_all(1)

    def t2():
        try:
            manager.acquire(2, "A", EXCLUSIVE)  # closes the cycle
            outcome[2] = "granted"
        except DeadlockError as exc:
            outcome[2] = exc
            manager.release_all(2)

    start = time.monotonic()
    th1 = threading.Thread(target=t1, daemon=True)
    th1.start()
    # Let txn 1 block first so txn 2's request closes the cycle.
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        with manager._cond:
            if 1 in manager._waiters.get("B", {}):
                break
        time.sleep(0.001)
    th2 = threading.Thread(target=t2, daemon=True)
    th2.start()
    th1.join(timeout=TIMEOUT)
    th2.join(timeout=TIMEOUT)
    elapsed = time.monotonic() - start
    assert not th1.is_alive() and not th2.is_alive()
    # Acceptance criterion: resolved in under half the timeout wall-clock.
    assert elapsed < 0.5 * TIMEOUT
    victims = [v for v in outcome.values() if isinstance(v, DeadlockError)]
    assert len(victims) == 1, f"exactly one victim expected, got {outcome}"
    assert list(outcome.values()).count("granted") == 1
    err = victims[0]
    assert set(err.cycle) == {1, 2}
    assert err.victim in (1, 2)
    assert manager.deadlocks_detected >= 1
    assert manager.victims_aborted == 1
    assert manager.timeouts == 0
    manager.release_all(1)
    manager.release_all(2)
    manager.assert_quiescent()


def test_upgrade_upgrade_deadlock_detected(manager):
    """Two SHARED holders both upgrading is a cycle; detected instantly."""
    manager.acquire(1, "obj", SHARED)
    manager.acquire(2, "obj", SHARED)
    outcome = {}

    def upgrade(txid):
        try:
            manager.acquire(txid, "obj", EXCLUSIVE)
            outcome[txid] = "granted"
        except DeadlockError as exc:
            outcome[txid] = exc
            manager.release_all(txid)

    start = time.monotonic()
    th1 = threading.Thread(target=upgrade, args=(1,), daemon=True)
    th1.start()
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        with manager._cond:
            if 1 in manager._waiters.get("obj", {}):
                break
        time.sleep(0.001)
    th2 = threading.Thread(target=upgrade, args=(2,), daemon=True)
    th2.start()
    th1.join(timeout=TIMEOUT)
    th2.join(timeout=TIMEOUT)
    elapsed = time.monotonic() - start
    assert not th1.is_alive() and not th2.is_alive()
    assert elapsed < 0.5 * TIMEOUT
    victims = [v for v in outcome.values() if isinstance(v, DeadlockError)]
    assert len(victims) == 1
    assert list(outcome.values()).count("granted") == 1
    assert manager.timeouts == 0
    manager.release_all(1)
    manager.release_all(2)
    manager.assert_quiescent()


def test_victim_is_least_work_then_youngest(manager):
    """The work_of callback steers victim choice; ties go to the youngest."""
    work = {1: 10, 2: 3}
    manager.work_of = work.get
    manager.acquire(1, "A", EXCLUSIVE)
    manager.acquire(2, "B", EXCLUSIVE)
    outcome = {}

    def req(txid, resource):
        try:
            manager.acquire(txid, resource, EXCLUSIVE)
            outcome[txid] = "granted"
        except DeadlockError as exc:
            outcome[txid] = exc
            manager.release_all(txid)

    th1 = threading.Thread(target=req, args=(1, "B"), daemon=True)
    th1.start()
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        with manager._cond:
            if 1 in manager._waiters.get("B", {}):
                break
        time.sleep(0.001)
    th2 = threading.Thread(target=req, args=(2, "A"), daemon=True)
    th2.start()
    th1.join(timeout=TIMEOUT)
    th2.join(timeout=TIMEOUT)
    # txn 2 logged less work -> txn 2 is the victim.
    assert isinstance(outcome[2], DeadlockError)
    assert outcome[2].victim == 2
    assert outcome[1] == "granted"
    manager.release_all(1)
    manager.assert_quiescent()


def test_overlapping_cycles_all_resolve(manager):
    """Three S-holders all upgrading form overlapping cycles; every one
    must resolve by detection (zero timeouts) -- the regression behind
    the detect-until-acyclic loop."""
    for txid in (1, 2, 3):
        manager.acquire(txid, "obj", SHARED)
    outcome = {}

    def upgrade(txid):
        try:
            manager.acquire(txid, "obj", EXCLUSIVE)
            outcome[txid] = "granted"
            manager.release_all(txid)
        except DeadlockError as exc:
            outcome[txid] = exc
            manager.release_all(txid)

    threads = []
    for txid in (1, 2, 3):
        th = threading.Thread(target=upgrade, args=(txid,), daemon=True)
        th.start()
        threads.append(th)
        time.sleep(0.01)  # stagger so each block is a separate event
    for th in threads:
        th.join(timeout=TIMEOUT)
    assert all(not th.is_alive() for th in threads)
    victims = [v for v in outcome.values() if isinstance(v, DeadlockError)]
    granted = [v for v in outcome.values() if v == "granted"]
    assert len(victims) == 2 and len(granted) == 1, outcome
    assert manager.timeouts == 0
    manager.assert_quiescent()


def test_timeout_backstop_still_fires(manager):
    """A stall that is not a deadlock (holder never releases) still times
    out at the deadline -- the backstop survives the detector."""
    manager.acquire(1, "obj", EXCLUSIVE)
    with pytest.raises(LockTimeoutError):
        manager.acquire(2, "obj", EXCLUSIVE, timeout=0.1)
    assert manager.timeouts == 1
    assert manager.deadlocks_detected == 0
    manager.release_all(1)
    manager.release_all(2)
    manager.assert_quiescent()


def test_database_level_deadlock_resolves(db):
    """End-to-end: two transactions in a classic two-object deadlock; the
    victim gets DeadlockError and the survivor commits."""
    ref_a = db.pnew(Part("a", 1))
    ref_b = db.pnew(Part("b", 2))
    barrier = threading.Barrier(2, timeout=10.0)
    outcome = {}

    def txn_fn(name, first, second):
        try:
            with db.transaction():
                first.weight = 10  # X lock on first
                barrier.wait()  # both hold their first lock
                second.weight = 20  # closes the cycle
            outcome[name] = "committed"
        except DeadlockError as exc:
            outcome[name] = exc

    start = time.monotonic()
    t1 = threading.Thread(target=txn_fn, args=("t1", ref_a, ref_b), daemon=True)
    t2 = threading.Thread(target=txn_fn, args=("t2", ref_b, ref_a), daemon=True)
    t1.start()
    t2.start()
    t1.join(timeout=10.0)
    t2.join(timeout=10.0)
    elapsed = time.monotonic() - start
    assert not t1.is_alive() and not t2.is_alive()
    assert elapsed < 0.5 * 2.0  # default lock_timeout is 2.0
    results = sorted(
        ("committed" if v == "committed" else "victim") for v in outcome.values()
    )
    assert results == ["committed", "victim"]
    db.locks.assert_quiescent()
    stats = db.stats()
    assert stats["locks.deadlocks"] >= 1
    assert stats["locks.victims"] == 1
    assert stats["locks.timeouts"] == 0


def test_locks_released_after_trigger_raises(db):
    """A throwing trigger callback mid-transaction must not leak locks."""

    def bomb(event, oid, vid):
        raise RuntimeError("trigger bomb")

    ref = db.pnew(Part("t", 1))
    trigger = db.triggers.register(bomb, events=["update"])
    try:
        with pytest.raises(RuntimeError, match="trigger bomb"):
            with db.transaction():
                ref.weight = 2
    finally:
        db.triggers.remove(trigger)
    db.locks.assert_quiescent()
    # The database still works afterwards.
    ref.weight = 3
    assert ref.weight == 3
    db.locks.assert_quiescent()


def test_locks_released_after_victim_abort(db):
    """The deadlock victim's abort releases everything it held."""
    ref = db.pnew(Part("v", 1))

    def inc():
        ref.weight = ref.weight + 1

    threads = [
        threading.Thread(
            target=lambda: [db.run_transaction(inc, max_attempts=30) for _ in range(10)],
            daemon=True,
        )
        for _ in range(4)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30.0)
    assert all(not th.is_alive() for th in threads)
    assert ref.weight == 41
    db.locks.assert_quiescent()
