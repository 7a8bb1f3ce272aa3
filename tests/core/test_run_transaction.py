"""``Database.run_transaction``: retry semantics, backoff, error routing."""

from __future__ import annotations

import threading

import pytest

from repro.errors import DeadlockError, GraphInvariantError, LockTimeoutError

from tests.conftest import Part


def test_commits_and_returns_result(db):
    ref = db.pnew(Part("p", 1))

    def fn():
        ref.weight = 5
        return ref.weight * 2

    assert db.run_transaction(fn) == 10
    assert ref.weight == 5
    assert db.stats()["txn.commits"] == 1
    assert db.stats()["txn.retries"] == 0


def test_reexecutes_from_scratch_on_conflict(db):
    """Each attempt must re-read -- no stale state carries across retries."""
    ref = db.pnew(Part("p", 1))
    attempts = []

    def fn():
        attempts.append(ref.weight)  # fresh read every attempt
        if len(attempts) < 3:
            raise DeadlockError("synthetic conflict")
        ref.weight = ref.weight + 1

    db.run_transaction(fn, max_attempts=5, backoff=0.001)
    # Every attempt observed the same (unchanged) committed state: the
    # failed attempts' transactions were rolled back, not carried over.
    assert attempts == [1, 1, 1]
    assert ref.weight == 2
    assert db.stats()["txn.retries"] == 2


def test_max_attempts_exhaustion_propagates(db):
    calls = []

    def fn():
        calls.append(1)
        raise LockTimeoutError("always conflicts")

    with pytest.raises(LockTimeoutError):
        db.run_transaction(fn, max_attempts=3, backoff=0.001)
    assert len(calls) == 3
    stats = db.stats()
    assert stats["txn.giveups"] == 1
    assert stats["txn.retries"] == 2


def test_non_retryable_errors_propagate_immediately(db):
    calls = []

    def invariant():
        calls.append(1)
        raise GraphInvariantError("corrupt")

    with pytest.raises(GraphInvariantError):
        db.run_transaction(invariant, max_attempts=5)
    assert len(calls) == 1

    class UserError(Exception):
        pass

    calls.clear()

    def user_fail():
        calls.append(1)
        raise UserError("app bug")

    with pytest.raises(UserError):
        db.run_transaction(user_fail, max_attempts=5)
    assert len(calls) == 1
    assert db.stats()["txn.retries"] == 0


def test_failed_attempts_roll_back(db):
    """Writes from a conflicted attempt must not survive."""
    ref = db.pnew(Part("p", 1))
    state = {"failed": False}

    def fn():
        ref.weight = 99
        if not state["failed"]:
            state["failed"] = True
            raise DeadlockError("synthetic")

    db.run_transaction(fn, backoff=0.001)
    assert ref.weight == 99
    # Exactly one committed write: the retry's. (A leak of the first
    # attempt's write would be invisible here, so check version count.)
    assert db.stats()["txn.commits"] == 1


def test_joins_ambient_transaction_inline(db):
    """Inside an explicit transaction, fn runs once with no retry and the
    ambient transaction owns commit."""
    ref = db.pnew(Part("p", 1))
    calls = []

    with db.transaction():
        def fn():
            calls.append(db.current_transaction().txid)
            ref.weight = 7

        db.run_transaction(fn)
        outer = db.current_transaction().txid
        assert calls == [outer]
    assert ref.weight == 7
    # No run_transaction bookkeeping: the ambient transaction did the work.
    assert db.stats()["txn.attempts"] == 0

    with db.transaction():
        def conflicted():
            raise DeadlockError("no retry inline")

        with pytest.raises(DeadlockError):
            db.run_transaction(conflicted)


def test_max_attempts_must_be_positive(db):
    with pytest.raises(ValueError):
        db.run_transaction(lambda: None, max_attempts=0)


def test_deadline_bounds_total_time(db):
    import time

    def fn():
        raise LockTimeoutError("conflict")

    start = time.monotonic()
    with pytest.raises(LockTimeoutError):
        db.run_transaction(fn, max_attempts=10_000, backoff=0.05, deadline=0.3)
    assert time.monotonic() - start < 2.0


def test_concurrent_increments_lose_nothing(db):
    """The headline guarantee: retried read-modify-write never loses."""
    ref = db.pnew(Part("counter", 0))
    threads, rounds = 6, 15

    def worker():
        for _ in range(rounds):
            db.run_transaction(
                lambda: setattr(ref, "weight", ref.weight + 1),
                max_attempts=50,
            )

    ts = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=60.0)
    assert all(not t.is_alive() for t in ts)
    assert ref.weight == threads * rounds
    assert db.stats()["txn.giveups"] == 0
    db.locks.assert_quiescent()


def test_stats_namespacing_and_aliases(db):
    """Every counter lives under its subsystem's namespace."""
    ref = db.pnew(Part("s", 1))
    ref.weight = 2
    stats = db.stats()
    for key in (
        "pool.hits", "wal.bytes", "wal.flushes", "cache.bytes_hits",
        "locks.acquires", "locks.deadlocks", "txn.commits", "faults.hits",
        "disk.pages", "degraded", "degraded.reason",
    ):
        assert key in stats, key
    assert stats["degraded"] is False
    assert stats["degraded.reason"] is None
