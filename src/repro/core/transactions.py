"""Transactions and locking for the versioning kernel.

The paper defers concurrency control ("We do not discuss concurrency
control issues in this paper", §4 fn. 3), but its persistence model demands
atomic, durable updates -- a ``newversion`` touches the versions heap, the
object table, and the id counter, and either all of it survives a crash or
none of it does.  This module provides:

* :class:`LockManager` -- strict two-phase locking at object granularity
  with shared/exclusive modes, lock upgrade, and a **wait-for graph**
  deadlock detector: every blocked request records which transactions it
  waits for, a cycle is detected the moment it forms, and one member of
  the cycle (least work done, then youngest) is chosen as the victim and
  raises :class:`~repro.errors.DeadlockError` immediately instead of
  stalling.  The acquire timeout remains as a per-transaction *deadline*
  backstop for non-deadlock stalls (a holder that simply never releases).
* :class:`Transaction` -- collects WAL records for its heap operations,
  commits by flushing the log through its ``COMMIT`` record, and aborts or
  rolls back to a savepoint through one undo step the database facade
  supplies: it applies the undo images in reverse, logging the
  compensation ops so that crash recovery repeats them (see
  :mod:`repro.storage.wal`), and restores memory from the records it
  undid -- all before any lock is released.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

from repro import probe
from repro.errors import DeadlockError, LockTimeoutError, TransactionStateError
from repro.storage.wal import (
    ABORT_END,
    BEGIN,
    COMMIT,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    PREPARE,
    LogManager,
    LogRecord,
)

if TYPE_CHECKING:
    from repro.storage.heap import HeapFile

#: Lock modes.
SHARED = "S"
EXCLUSIVE = "X"

#: Transaction states.
ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class LockManager:
    """Strict 2PL lock table keyed by arbitrary hashable resources.

    Compatible requests: any number of SHARED holders, or exactly one
    EXCLUSIVE holder.  A holder of SHARED may upgrade to EXCLUSIVE when it
    is the only holder.

    Deadlock handling is a live **wait-for graph**: every blocked request
    registers itself as a waiter, and the set of transactions blocking a
    waiter (its outgoing wait-for edges) is always *derived fresh* from
    the current holder and waiter tables -- edges can never go stale.  A
    new waiter immediately runs cycle detection from itself; if its
    request closed a cycle, one member is chosen as the **victim** --
    least work done first (via the pluggable :attr:`work_of` callback),
    youngest (largest txid) on ties -- flagged, and woken.  The victim's
    ``acquire`` raises :class:`~repro.errors.DeadlockError` carrying the
    cycle; aborting it releases its locks and breaks the cycle for the
    survivors.  The acquire ``timeout`` (overridable per call, so each
    transaction can carry its own deadline) remains as a backstop for
    stalls that are not deadlocks at all -- a holder that simply never
    releases -- and raises :class:`LockTimeoutError` as before.

    Upgrades are modelled as ordinary EXCLUSIVE waits whose blockers are
    the *other* holders, so the classic upgrade-upgrade deadlock (two
    SHARED holders both requesting EXCLUSIVE) is a two-edge cycle and is
    detected the instant the second upgrader blocks.

    Fairness: a *waiting* EXCLUSIVE request blocks freshly arriving SHARED
    requests on the same resource.  Without this, steady read traffic
    starves writers -- each new reader is compatible with the current
    SHARED holders, so the writer only ever acquires via the timeout path.
    Re-entrant requests by existing holders are still granted immediately,
    and upgrades get the same anti-starvation benefit since they wait as
    EXCLUSIVE too.
    """

    def __init__(self, timeout: float = 2.0) -> None:
        self._timeout = timeout
        self._cond = threading.Condition()
        # resource -> {txid: held mode}
        self._holders: dict[object, dict[int, str]] = {}
        # resource -> {txid: requested mode} for every blocked request.
        self._waiters: dict[object, dict[int, str]] = {}
        # txid -> detected cycle; set by the detector, consumed (raised)
        # by the victim's own acquire loop.
        self._victims: dict[int, tuple[int, ...]] = {}
        #: Optional callback txid -> work done (e.g. ops logged); the
        #: victim choice prefers the transaction with the least work.
        self.work_of: Callable[[int], int] | None = None
        #: Wait durations (seconds), for p99 latency assertions.
        self.waits_s = probe.Histogram()
        self.deadlocks_detected = 0
        self.victims_aborted = 0
        self.timeouts = 0
        self.acquires = 0
        self.waits = 0
        self.wait_time_total = 0.0

    # -- wait-for graph ------------------------------------------------------

    def _blockers(self, txid: int, resource: object, mode: str) -> set[int]:
        """Transactions currently preventing this request (fresh, not cached)."""
        holders = self._holders.get(resource, {})
        if mode == SHARED:
            blocked = {t for t, m in holders.items() if t != txid and m != SHARED}
            # Writer priority: fresh SHARED requests queue behind waiting
            # EXCLUSIVE requests, so those writers are blockers too.
            blocked.update(
                t
                for t, m in self._waiters.get(resource, {}).items()
                if t != txid and m == EXCLUSIVE
            )
            return blocked
        return {t for t in holders if t != txid}

    def _edges_of(self, txid: int) -> set[int]:
        """All outgoing wait-for edges of ``txid`` (over every resource)."""
        edges: set[int] = set()
        for resource, waiters in self._waiters.items():
            mode = waiters.get(txid)
            if mode is not None:
                edges.update(self._blockers(txid, resource, mode))
        return edges

    def _find_cycle(self, start: int) -> tuple[int, ...] | None:
        """A wait-for cycle through ``start``, or None.  Caller holds _cond.

        Transactions already flagged as victims are treated as absent:
        they are guaranteed to abort and release everything they hold, so
        any wait that goes through one resolves on its own.  Skipping
        them also keeps :meth:`_detect_and_resolve`'s loop from re-finding
        a cycle it has already broken.
        """
        path: list[int] = [start]
        on_path = {start}
        stack = [iter(self._edges_of(start))]
        while stack:
            advanced = False
            for nxt in stack[-1]:
                if nxt == start:
                    return tuple(path)
                if nxt in on_path or nxt in self._victims:
                    continue
                on_path.add(nxt)
                path.append(nxt)
                stack.append(iter(self._edges_of(nxt)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
        return None

    def _choose_victim(self, cycle: tuple[int, ...]) -> int:
        """Least work done, then youngest (largest txid)."""
        work = self.work_of

        def key(txid: int) -> tuple[int, int]:
            return (work(txid) if work is not None else 0, -txid)

        return min(cycle, key=key)

    def _detect_and_resolve(self, txid: int) -> None:
        """Resolve every cycle through a freshly blocked ``txid``.

        One blocking request can close several cycles at once (two other
        holders of the contended resource may already be upgrading, say),
        and breaking one does not break the rest -- no further block event
        will come to re-trigger detection, so stopping at the first cycle
        would leave the survivors deadlocked until their deadline.  Loop
        until no cycle through ``txid`` remains; each round flags one
        victim, which :meth:`_find_cycle` then treats as gone.
        """
        while True:
            cycle = self._find_cycle(txid)
            if cycle is None:
                return
            self.deadlocks_detected += 1
            victim = self._choose_victim(cycle)
            self._victims[victim] = cycle
            self._cond.notify_all()
            probe.notify()
            if victim == txid:
                return  # the caller itself is dying; its edges die with it

    # -- acquisition -----------------------------------------------------------

    def acquire(
        self,
        txid: int,
        resource: object,
        mode: str,
        timeout: float | None = None,
    ) -> None:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txid``.

        ``timeout`` overrides the manager default for this call (the
        per-transaction deadline backstop).  Raises
        :class:`~repro.errors.DeadlockError` if this request completes a
        wait-for cycle and ``txid`` is chosen as the victim, or
        :class:`~repro.errors.LockTimeoutError` on deadline expiry.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        budget = self._timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        with self._cond:
            self.acquires += 1
            holders = self._holders.setdefault(resource, {})
            held = holders.get(txid)
            if held == EXCLUSIVE or held == mode:
                return
            if not self._blockers(txid, resource, mode):
                holders[txid] = mode
                return
            # Blocked: join the wait-for graph and look for a cycle.
            wait_start = time.monotonic()
            self.waits += 1
            self._waiters.setdefault(resource, {})[txid] = mode
            try:
                self._detect_and_resolve(txid)
                while True:
                    cycle = self._victims.pop(txid, None)
                    if cycle is not None:
                        self.victims_aborted += 1
                        raise DeadlockError(
                            f"txn {txid} chosen as deadlock victim waiting for "
                            f"{mode} on {resource!r} (cycle {' -> '.join(map(str, cycle + (cycle[0],)))})",
                            cycle=cycle,
                            victim=txid,
                        )
                    holders = self._holders.setdefault(resource, {})
                    if not self._blockers(txid, resource, mode):
                        holders[txid] = mode
                        return
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.timeouts += 1
                        raise LockTimeoutError(
                            f"txn {txid} timed out waiting for {mode} on {resource!r}"
                        )
                    probe.wait(self._cond, remaining)
            finally:
                waited = time.monotonic() - wait_start
                self.wait_time_total += waited
                self.waits_s.record(waited)
                waiters = self._waiters.get(resource)
                if waiters is not None:
                    waiters.pop(txid, None)
                    if not waiters:
                        del self._waiters[resource]
                self._victims.pop(txid, None)
                if not self._holders.get(resource):
                    self._holders.pop(resource, None)
                # Readers held back by this waiter (writer priority) and
                # detectors must re-check, whether we acquired or failed.
                self._cond.notify_all()
                probe.notify()

    def release_all(self, txid: int) -> None:
        """Release every lock held by ``txid`` (commit/abort time)."""
        with self._cond:
            empty = []
            for resource, holders in self._holders.items():
                holders.pop(txid, None)
                if not holders:
                    empty.append(resource)
            for resource in empty:
                del self._holders[resource]
            self._victims.pop(txid, None)
            self._cond.notify_all()
        probe.notify()

    def covers(self, txid: int, resource: object, mode: str) -> bool:
        """True if the lock ``txid`` already holds satisfies ``mode``."""
        with self._cond:
            held = self._holders.get(resource, {}).get(txid)
            return held == EXCLUSIVE or held == mode

    def held(self, txid: int) -> dict[object, str]:
        """Snapshot of the locks held by ``txid`` (testing aid)."""
        with self._cond:
            return {
                resource: holders[txid]
                for resource, holders in self._holders.items()
                if txid in holders
            }

    # -- introspection ---------------------------------------------------------

    def assert_quiescent(self) -> None:
        """Raise AssertionError unless no locks are held, waited on, or flagged.

        Test teardowns call this to prove that no code path can leak a
        lock: every holder entry, waiter registration, and victim flag
        must have been cleaned up by commit/abort/error paths.
        """
        with self._cond:
            if self._holders or self._waiters or self._victims:
                raise AssertionError(
                    "lock manager not quiescent: "
                    f"holders={self._holders!r} waiters={self._waiters!r} "
                    f"victims={sorted(self._victims)!r}"
                )

    def wait_p99(self) -> float:
        """99th-percentile lock-wait latency in seconds (0.0 if none)."""
        with self._cond:
            return self.waits_s.quantile(0.99)

    def stats(self) -> dict[str, object]:
        """Namespaced counters for ``Database.stats()`` (``locks.*``)."""
        with self._cond:
            return {
                "locks.deadlocks": self.deadlocks_detected,
                "locks.victims": self.victims_aborted,
                "locks.timeouts": self.timeouts,
                "locks.acquires": self.acquires,
                "locks.waits": self.waits,
                "locks.wait_time": self.wait_time_total,
                "locks.held": sum(len(h) for h in self._holders.values()),
            }


def undo_operations(
    records: "list[LogRecord] | tuple[LogRecord, ...]",
    heap_resolver: Callable[[int], "HeapFile"],
    log: LogManager,
    txid: int,
) -> None:
    """Apply undo images for ``records`` in reverse, logging compensations.

    The compensation ops are ordinary ``OP_*`` records under ``txid``, so
    crash recovery repeats the rollback instead of re-deriving it.  Used
    by :meth:`Transaction.abort`/:meth:`Transaction.rollback_to` and by
    presumed-abort resolution of in-doubt 2PC participants (which rolls
    back a transaction recovered from the WAL, not a live one).
    """
    for record in reversed(records):
        heap = heap_resolver(record.file_id)
        if record.kind == OP_INSERT:
            heap.replay_delete(record.page_id, record.slot)
            log.append(
                LogRecord(
                    OP_DELETE,
                    txid,
                    record.file_id,
                    record.page_id,
                    record.slot,
                    b"",
                    record.payload,
                )
            )
        elif record.kind == OP_UPDATE:
            heap.replay_update(record.page_id, record.slot, record.undo_payload)
            log.append(
                LogRecord(
                    OP_UPDATE,
                    txid,
                    record.file_id,
                    record.page_id,
                    record.slot,
                    record.undo_payload,
                    record.payload,
                )
            )
        else:  # OP_DELETE
            heap.replay_insert(record.page_id, record.slot, record.undo_payload)
            log.append(
                LogRecord(
                    OP_INSERT,
                    txid,
                    record.file_id,
                    record.page_id,
                    record.slot,
                    record.undo_payload,
                    b"",
                )
            )


class Transaction:
    """One atomic unit of work against the database.

    Created by the database facade, which passes ``undo(txid, records,
    touched)`` -- roll ``records`` back on disk and in memory, ``touched``
    bounding the objects to restore (None: no bound) -- and ``on_finish``
    for publication after the locks are released.  The transaction's
    :meth:`log_op` is the callback threaded through every heap mutation it
    performs.
    """

    #: A local transaction has no verdict apart from its own ``COMMIT``
    #: (see :attr:`repro.shard.coordinator.GlobalTransaction.decided`).
    decided = False

    def __init__(
        self,
        txid: int,
        log: LogManager,
        lock_manager: LockManager,
        undo: Callable[[int, "list[LogRecord]", "set | None"], None],
        on_finish: Callable[["Transaction"], None],
        lock_timeout: float | None = None,
    ) -> None:
        self.txid = txid
        self.state = ACTIVE
        #: Per-transaction lock deadline (None = the manager's default);
        #: the timeout backstop of the wait-for-graph deadlock detector.
        self.lock_timeout = lock_timeout
        #: Object ids this transaction may have mutated (X-locked targets
        #: plus objects it created): what an undo restores in memory.
        self.touched_oids: set = set()
        #: Set when an operation failed partway through -- the touched set
        #: can no longer be trusted, so an undo re-derives everything.
        self.cache_taint = False
        #: Pinned snapshot for snapshot-read transactions (set by the
        #: database facade); reads route through it, lock-free.
        self.snapshot = None
        #: True for snapshot-read transactions: every mutation fails fast
        #: with :class:`~repro.errors.ReadOnlySnapshotError`.
        self.read_only = False
        #: True once :meth:`prepare` has logged the prepare promise; from
        #: then on the transaction never aborts itself on a failed commit
        #: (the coordinator or restart recovery owns its fate).
        self.prepared = False
        #: Log sequence of the ``COMMIT`` record, set by :meth:`commit`.
        self.commit_seq = 0
        #: The owning :class:`~repro.core.session.Session` (set by the
        #: database facade); the transaction's operations may execute on
        #: any thread that has the session activated.
        self.session = None
        self._log = log
        self._locks = lock_manager
        self._undo = undo
        self._on_finish = on_finish
        self._ops: list[LogRecord] = []
        self._log.append(LogRecord(BEGIN, txid))

    # -- the heap callback ----------------------------------------------------

    def log_op(
        self,
        kind: int,
        file_id: int,
        page_id: int,
        slot: int,
        payload: bytes,
        undo_payload: bytes,
    ) -> None:
        """Record one heap mutation (appended to the WAL, buffered), or a
        redo-only ``PAYLOAD``, which nothing undoes."""
        self._require_active()
        record = LogRecord(kind, self.txid, file_id, page_id, slot, payload, undo_payload)
        self._log.append(record)
        if record.is_op:
            self._ops.append(record)

    # -- locking ------------------------------------------------------------

    def lock(self, resource: object, mode: str = EXCLUSIVE) -> None:
        """Acquire a lock held until commit/abort (strict 2PL)."""
        self._require_active()
        # Yield only on acquisitions that could change the lock table --
        # re-acquires of covered locks are invisible to other threads and
        # would only blow up the explorer's decision tree.
        if probe.attached() is not None and not self._locks.covers(
            self.txid, resource, mode
        ):
            probe.point("txn.lock")
        self._locks.acquire(self.txid, resource, mode, timeout=self.lock_timeout)

    # -- savepoints ------------------------------------------------------------

    def savepoint(self) -> int:
        """Mark the current position; :meth:`rollback_to` returns here.

        Savepoints are plain op-counts: cheap, nestable, and invalidated
        by rolling back past them.
        """
        self._require_active()
        return len(self._ops)

    def rollback_to(self, savepoint: int) -> int:
        """Undo every operation after ``savepoint``; the txn stays active.

        Compensation ops are logged (as in abort) so crash recovery agrees
        with the in-memory undo.  Returns the number of ops undone.
        """
        self._require_active()
        if not 0 <= savepoint <= len(self._ops):
            raise TransactionStateError(
                f"invalid savepoint {savepoint} (transaction has {len(self._ops)} ops)"
            )
        victims = self._ops[savepoint:]
        del self._ops[savepoint:]
        if victims:
            self._undo(self.txid, victims, None if self.cache_taint else self.touched_oids)
        return len(victims)

    # -- outcome --------------------------------------------------------------

    def prepare(self, meta: bytes) -> None:
        """Phase one of two-phase commit: promise that commit cannot fail.

        Appends a ``PREPARE`` record carrying ``meta`` (the coordinator's
        encoded ``(gtxid, coordinator, participants)``) behind the
        transaction's ops.  The promise is durable once this log is next
        forced, and forcing it is the coordinator's move: a remote
        participant's log right away, the coordinator shard's own together
        with the verdict that follows the ``PREPARE`` in it.  A crash after
        that force and before the decision leaves the transaction
        *in-doubt*, and restart recovery keeps its effects until the
        coordinator's verdict is known.  The transaction stays active and
        keeps its locks; the owner must follow with :meth:`commit` or
        :meth:`abort`.
        """
        self._require_active()
        if self.prepared:
            raise TransactionStateError(
                f"transaction {self.txid} is already prepared"
            )
        probe.point("txn.prepare")
        self._log.append(LogRecord(PREPARE, self.txid, payload=meta))
        self.prepared = True

    def commit(self) -> None:
        """Make every logged operation durable, then release locks.

        A failed commit (the WAL flush raised) is *not* acknowledged: the
        transaction aborts itself -- the WAL kept the unwritten tail, so
        the abort's own flush retries the I/O -- and the original error
        propagates.  Whatever happens, the locks are released: a
        transaction must never exit this method still holding locks, or
        every other transaction contending on them stalls until timeout.

        A *prepared* participant is different twice over.  Its ``COMMIT``
        record is appended, not forced: the durable verdict in the
        coordinator's WAL already owns its fate, so a crash before this
        log's next force brings it back in-doubt and resolution commits it
        again (:attr:`commit_seq` is what the router holds the verdict
        against).  And it must never abort unilaterally -- a self-abort
        would contradict that verdict -- so a prepared commit that fails
        keeps the transaction active (locks held, effects in place) for
        the caller to retry or restart recovery to resolve.
        """
        self._require_active()
        probe.point("txn.commit")
        try:
            self.commit_seq = self._log.append(LogRecord(COMMIT, self.txid))
            if not self.prepared:
                self._log.flush()
        except BaseException:
            if self.prepared:
                raise
            try:
                if not probe.crashed():
                    self.abort()
            except BaseException:
                pass  # the commit's own error is the one to surface
            finally:
                if self.state == ACTIVE:
                    # The abort failed too (dead disk / simulated crash):
                    # durable repair is recovery's job, but the locks and
                    # the wait-for edges must not outlive the corpse.
                    self.state = ABORTED
                    self._finish()
            raise
        probe.point("txn.commit.durable")
        self.state = COMMITTED
        self._finish()

    def abort(self, *, release_prepared: bool = False) -> None:
        """Undo every operation (in reverse), log the compensations, finish.

        Memory is restored by the undo step itself, so no other
        transaction can take a released lock and read the undone state.
        Locks are released even when the undo itself fails partway (I/O
        error mid-rollback): the heaps are then repaired by WAL recovery
        on reopen, but no other transaction is left waiting on a corpse.

        A *prepared* participant refuses a unilateral abort: the global
        commit verdict may already be durable in the coordinator's WAL,
        and rolling back here would contradict it.  ``release_prepared=
        True`` is the coordinator's presumed-abort override -- legal only
        while it knows no decision record exists.
        """
        self._require_active()
        if self.prepared and not release_prepared:
            raise TransactionStateError(
                f"transaction {self.txid} is prepared; only its coordinator "
                "(or restart recovery) may decide its fate"
            )
        probe.point("txn.abort")
        try:
            if self._ops or self.cache_taint:  # else nothing moved
                self._undo(self.txid, self._ops, None if self.cache_taint else self.touched_oids)
            self._log.append(LogRecord(ABORT_END, self.txid))
            self._log.flush()
        finally:
            self.state = ABORTED
            self._finish()

    def _finish(self) -> None:
        probe.point("txn.release")
        self._locks.release_all(self.txid)
        self._on_finish(self)

    def _require_active(self) -> None:
        if self.state != ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txid} is {self.state}, not active"
            )

    @property
    def op_count(self) -> int:
        """Number of heap operations logged so far."""
        return len(self._ops)

    def __repr__(self) -> str:
        return f"Transaction(txid={self.txid}, state={self.state}, ops={len(self._ops)})"
