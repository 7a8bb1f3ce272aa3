"""The Ode database facade: the public entry point of the reproduction.

A :class:`Database` is a directory holding a data file and a write-ahead
log.  It assembles the whole stack -- disk manager, buffer pool, WAL,
catalog, version store, lock manager, trigger manager -- and exposes the
paper's programming surface:

* ``pnew(obj)`` -> generic :class:`~repro.core.pointers.Ref`
* ``newversion(ref | vref)`` -> specific :class:`~repro.core.pointers.VersionRef`
* ``pdelete(ref | vref)``
* traversal: ``dprevious``, ``dnext``, ``tprevious``, ``tnext``,
  ``history``, ``versions``, ``leaves``, ``alternatives``
* clusters and ``query(...).suchthat(...)`` iteration
* triggers via :attr:`Database.triggers`
* transactions: ``with db.transaction(): ...`` (atomic, durable); every
  operation outside an explicit transaction autocommits.

Opening a database replays the WAL (redo committed work, undo losers),
then checkpoints, so a process crash never loses acknowledged commits --
the property the paper's persistence model promises ("such objects
automatically persist across program invocations", §2).

References returned by a Database are bound to it, so attribute writes
through them are transactional and locked like any other mutation.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Callable, Sequence

from repro import probe
from repro.errors import (
    DatabaseDegradedError,
    ReadOnlySnapshotError,
    TransactionStateError,
)
from repro.core import gc as gc_engine
from repro.core.cache import DEFAULT_BYTES_BUDGET
from repro.core.identity import Oid, Vid
from repro.core.indexes import HashIndex, IndexManager, OrderedIndex
from repro.core.pointers import Ref, VersionRef
from repro.core.query import Query
from repro.core.session import RETRYABLE_ERRORS, Session, SessionHost  # noqa: F401 (re-exported)
from repro.core.snapshot import Snapshot
from repro.core.store import StoragePolicy, VersionRecord, VersionStore
from repro.core.surface import Target, VersionReads, oid_of, plain_id
from repro.core.transactions import (
    EXCLUSIVE,
    SHARED,
    LockManager,
    Transaction,
    undo_operations,
)
from repro.core.triggers import TriggerManager
from repro.core.vgraph import VersionGraph
from repro.storage.blobs import GARBAGE_PACE, BlobStore
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from repro.storage.stripes import StripedLock
from repro.storage import serialization
from repro.storage.wal import (
    ABORT_END,
    COMMIT,
    COORD_COMMIT,
    COORD_END,
    GC_TOMBSTONE,
    InDoubtTransaction,
    LogManager,
    LogRecord,
    RecoveryReport,
    recover,
)

_DATA_FILE = "data.odb"
_WAL_FILE = "wal.log"

#: Default WAL size (bytes) that triggers an automatic checkpoint at commit.
DEFAULT_CHECKPOINT_THRESHOLD = 8 * 1024 * 1024

#: Consecutive storage-write failures that turn the database read-only.
DEGRADE_AFTER = 3


class Database(VersionReads, SessionHost):
    """An Ode-style versioned object database in a directory.

    Parameters
    ----------
    path:
        Directory for the database files (created if missing).
    policy:
        Version payload storage policy (full copies or derived-from
        deltas); see :class:`~repro.core.store.StoragePolicy`.
    pool_size:
        Buffer pool capacity in pages.
    lock_timeout:
        Seconds a transaction waits for a lock before aborting
        (deadlock resolution).
    checkpoint_threshold:
        WAL bytes after which a commit triggers an automatic checkpoint
        (0 disables automatic checkpoints).
    cache_budget:
        Byte budget for the version store's materialized-bytes cache.
    group_commit_window:
        Seconds a committing transaction lingers before fsyncing the WAL
        so concurrent commits can share one fsync (0 disables lingering;
        piggybacking on an in-flight fsync still happens).

    After :data:`DEGRADE_AFTER` consecutive WAL-flush / data-file-sync
    failures the database enters read-only **degraded mode**: reads and
    version traversal keep working, writes raise
    :class:`~repro.errors.DatabaseDegradedError`.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        policy: StoragePolicy | None = None,
        pool_size: int = 256,
        lock_timeout: float = 2.0,
        checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
        cache_budget: int = DEFAULT_BYTES_BUDGET,
        group_commit_window: float = 0.0,
        oid_stride: int = 1,
        oid_residue: int = 0,
    ) -> None:
        self._path = os.fspath(path)
        os.makedirs(self._path, exist_ok=True)
        self._disk = DiskManager(os.path.join(self._path, _DATA_FILE))
        self._log = LogManager(
            os.path.join(self._path, _WAL_FILE), group_window=group_commit_window
        )
        self._pool = BufferPool(self._disk, pool_size)
        self._pool.before_write = self._log.flush  # write-ahead rule
        # Open before recovery: replay re-puts the logged payloads.
        self._blobs = BlobStore(os.path.join(self._path, "blobs"))
        self.last_recovery: RecoveryReport | None = None
        # Two-phase commit bookkeeping (see repro.shard): prepared
        # participants awaiting a verdict, and coordinator decisions not
        # yet acknowledged by every participant, both recovered from the
        # WAL.  While either is non-empty the WAL must not truncate -- the
        # records *are* the evidence recovery needs.
        self._in_doubt: dict[int, InDoubtTransaction] = {}
        self._coord_decisions: dict[tuple, tuple[int, ...]] = {}
        self._twopc_mutex = threading.Lock()
        self._recover_if_needed()
        report = self.last_recovery
        # Striped page locks guard the short fetch-copy-unpin windows of
        # heap physical ops against lock-free snapshot readers.
        self._page_locks = StripedLock()
        self._catalog = Catalog(self._disk, self._pool, page_locks=self._page_locks)
        self._store = VersionStore(
            self._catalog,
            self._blobs,
            policy,
            cache_budget=cache_budget,
            oid_stride=oid_stride,
            oid_residue=oid_residue,
        )
        self._locks = LockManager(lock_timeout)
        self._locks.work_of = self._txn_work
        self._triggers = TriggerManager(type_resolver=self._store.type_name)
        self._store.add_observer(self._triggers.dispatch)
        self._indexes = IndexManager(self._store)
        # Fresh txids must clear every txid still present in a retained
        # WAL (recovery skips truncation while in-doubt participants or
        # coordinator decisions survive): reusing a retained txid would
        # let a later recovery mistake a pre-crash loser's records for a
        # new winner's.
        txid_floor = 0
        if report is not None and (report.in_doubt or report.coord_decisions):
            txid_floor = report.max_txid
        self._txids = itertools.count(txid_floor + 1)
        # Physical-consistency mutex: serializes individual store/heap
        # operations (page mutations are multi-step).  Transaction-level
        # isolation is the lock manager's job; this only protects single
        # operations.  Reentrant, so trigger actions that call back into
        # the database from within a mutation do not self-deadlock.
        self._storage_mutex = threading.RLock()
        self._active: dict[int, Transaction] = {}
        self._txn_mutex = threading.Lock()
        self._init_session_host()
        self._checkpoint_threshold = checkpoint_threshold
        self._closed = False
        # Graceful degradation: persistent storage-write failure flips the
        # database to read-only.  Hooks are installed after recovery -- an
        # unopenable database should raise from the constructor, not limp.
        self._degraded_reason: str | None = None
        self._log.failure_threshold = DEGRADE_AFTER
        self._log.on_persistent_failure = self._enter_degraded
        self._disk.failure_threshold = DEGRADE_AFTER
        self._disk.on_persistent_failure = self._enter_degraded
        #: Garbage-collection lifetime counters (surfaced under ``gc.*``).
        self._gc_counters: dict[str, int] = {
            "runs": 0,
            "versions_deleted": 0,
            "blobs_unlinked": 0,
            "bytes_freed": 0,
            "paced_runs": 0,
            "paced_bytes_freed": 0,
        }
        self._gc_mark = 0  # garbage bytes the last reclaim attempt left
        # A crash may have landed inside the blob-reclaim unlink protocol;
        # the WAL tombstones carry the evidence.
        self._repair_gc_tombstones()

    # -- recovery ----------------------------------------------------------

    def _recover_if_needed(self) -> None:
        if self._log.size() == 0:
            return
        heaps: dict[int, HeapFile] = {}

        def resolver(file_id: int) -> HeapFile:
            heap = heaps.get(file_id)
            if heap is None:
                heap = HeapFile(file_id, self._disk, self._pool, known_pages=[])
                heaps[file_id] = heap
            return heap

        report = self.last_recovery = recover(self._log, resolver, self._blobs.put)
        self._in_doubt = dict(report.in_doubt)
        self._coord_decisions = dict(report.coord_decisions)
        # GC tombstones, too, live only in the WAL until
        # ``_repair_gc_tombstones`` has acted on them.
        self._write_back(keep_log=bool(report.gc_tombstones))
        self._pool.drop_clean()

    def _write_back(self, keep_log: bool = False) -> None:
        """Bring the data file and the packs up to the log, then drop it.

        Unless it is still evidence: the undo images of in-doubt
        participants and the coordinator verdicts live only there, so the
        log stays until the checkpoint that follows their resolution.
        The packs are forced only here, when the log is about to forget
        the ``PAYLOAD`` records that have kept their new frames durable.
        """
        forget = not (keep_log or self._in_doubt or self._coord_decisions)
        if forget:
            try:
                self._blobs.sync()
            except OSError:
                self._disk.note_failure("pack fsync failed")
                raise
        self._pool.flush_all()
        self._disk.sync()
        if forget:
            self._log.truncate()

    def _repair_gc_tombstones(self) -> None:
        """Finish a crashed blob-reclaim batch.

        The unlink protocol journals a ``GC_TOMBSTONE`` naming each key
        *before* touching the file, so recovery can always tell an
        interrupted reclaim from corruption.  The store has just recounted
        every reference, which decides each tombstoned key:

        * count 0 -> the reclaim was decided and nothing has revived the
          key since; unlink the file (idempotent) and forget the key.
        * unknown -> the file is already gone.
        * count > 0 -> stored again after the reclaim; live.

        Nothing else is unlinked at open.  A file no record references --
        a crashed put, a rolled-back put, a displaced payload -- is a
        zero-count candidate in the store's index and leaves through
        :meth:`reclaim_blobs`.  While a 2PC participant is in doubt not
        even a tombstoned key is touched: with no durable counter, a
        payload the prepared transaction displaced also counts zero, and
        an abort verdict must find its file.  Repair is idempotent: a
        crash inside it (the ``gc.repair.*`` windows) leaves the
        tombstones in the WAL, and the next open repairs again.
        """
        report = self.last_recovery
        tombstones = report.gc_tombstones if report is not None else ()
        probe.point("gc.repair.pre")
        if not self._in_doubt:
            for key in tombstones:
                if self._store.blob_refcount(key) == 0:
                    self._store.blobs.unlink(key)
                    self._store.drop_blob_entry(key)
        probe.point("gc.repair.post")
        if tombstones:
            self._write_back()

    # -- two-phase commit surface (used by repro.shard) ------------------------

    def in_doubt_txns(self) -> dict[int, InDoubtTransaction]:
        """Prepared-but-undecided participants recovered at open.

        Keyed by local txid.  Each must be fed to :meth:`resolve_in_doubt`
        before this shard's WAL can truncate again.
        """
        with self._twopc_mutex:
            return dict(self._in_doubt)

    def coordinator_decisions(self) -> dict[tuple, tuple[int, ...]]:
        """Surviving coordinator commit verdicts: gtxid -> participants.

        A gtxid present here was *decided committed*; in-doubt
        participants of any gtxid absent from every shard's decisions are
        resolved by presumed abort.
        """
        with self._twopc_mutex:
            return dict(self._coord_decisions)

    def log_coordinator_decision(
        self, gtxid: tuple, participants: tuple[int, ...]
    ) -> None:
        """Durably journal the global commit verdict in this shard's WAL.

        This is the 2PC commit point: once the flush returns, every
        prepared participant of ``gtxid`` *will* commit, crash or no
        crash.  The same flush forces this shard's own ``PREPARE``,
        appended just before: a torn tail never keeps the verdict without
        it.  The decision is tracked so the WAL cannot truncate until
        :meth:`forget_coordinator_decision` releases it.
        """
        self._check_writable()
        with self._twopc_mutex:
            self._coord_decisions[gtxid] = tuple(participants)
        try:
            self._log.append(
                LogRecord(
                    COORD_COMMIT,
                    0,
                    payload=serialization.encode((gtxid, tuple(participants))),
                )
            )
            self._log.flush()
        except BaseException:
            # Not durable: the verdict never happened (presumed abort).
            with self._twopc_mutex:
                self._coord_decisions.pop(gtxid, None)
            raise

    def forget_coordinator_decision(self, gtxid: tuple) -> None:
        """Every participant's ``COMMIT`` is durable: release the decision.

        Appends ``COORD_END`` (lazily flushed -- losing it merely makes a
        future recovery re-deliver an already-applied commit verdict,
        which resolution handles idempotently) and lifts the truncation
        hold once no decisions remain.  The router calls this only under
        its release rule (:func:`repro.shard.coordinator.release_verdicts`).
        """
        with self._twopc_mutex:
            self._coord_decisions.pop(gtxid, None)
        self._log.append(
            LogRecord(COORD_END, 0, payload=serialization.encode(gtxid))
        )

    def flush_log(self) -> None:
        """Force the WAL: every record appended so far becomes durable."""
        self._log.flush()

    @property
    def log_flushed_seq(self) -> int:
        """The WAL sequence durable so far (see :attr:`Transaction.commit_seq`)."""
        return self._log.flushed_seq

    def resolve_in_doubt(self, txid: int, commit: bool) -> None:
        """Decide a recovered in-doubt participant: commit or roll back.

        Commit appends the missing ``COMMIT`` record; abort applies the
        retained undo images in reverse (logging compensations, exactly
        like a live abort) and appends ``ABORT_END``.  Either way the
        transaction stops being in-doubt and, once none remain, the WAL
        may truncate again.
        """
        with self._twopc_mutex:
            info = self._in_doubt.get(txid)
        if info is None:
            raise TransactionStateError(f"transaction {txid} is not in-doubt")
        if commit:
            self._log.append(LogRecord(COMMIT, txid))
            self._log.flush()
        else:
            self._undo(txid, info.ops, None)
            self._log.append(LogRecord(ABORT_END, txid))
            self._log.flush()
            self._publish()
        # Only now: "not in doubt" is what lets the router release the
        # verdict, so it must not read true before the outcome is durable.
        with self._twopc_mutex:
            self._in_doubt.pop(txid, None)

    # -- lifecycle -----------------------------------------------------------

    @property
    def path(self) -> str:
        """The database directory."""
        return self._path

    @property
    def store(self) -> VersionStore:
        """The underlying version store (unlogged surface; prefer the facade)."""
        return self._store

    @property
    def catalog(self) -> Catalog:
        """The system catalog."""
        return self._catalog

    @property
    def triggers(self) -> TriggerManager:
        """The trigger facility (O++ triggers, paper §2)."""
        return self._triggers

    @property
    def locks(self) -> LockManager:
        """The lock manager (exposed for tests and the stress harness)."""
        return self._locks

    @property
    def page_locks(self) -> StripedLock:
        """The striped page locks (exposed for tests and the stress harness)."""
        return self._page_locks

    def checkpoint(self) -> None:
        """Flush all dirty state and truncate the WAL (quiescent only)."""
        self._check_writable()
        with self._txn_mutex:
            if self._active:
                raise TransactionStateError(
                    "checkpoint requires no active transactions"
                )
            self._log.flush()
            self._write_back()

    def close(self) -> None:
        """Checkpoint and close all files.  Idempotent.

        A degraded database skips the final checkpoint/flush/fsync -- the
        storage already rejects writes, and close must not raise.  The WAL
        is left in place so the next open replays whatever did make it to
        disk.
        """
        if self._closed:
            return
        with self._session_mutex:
            sessions = list(self._sessions)
        for sess in sessions:
            sess.close()  # aborts open txns, unpins snapshots
        if self._degraded_reason is None:
            self.checkpoint()
        self._log.close(flush=self._degraded_reason is None)
        self._blobs.close()
        self._disk.close(sync=self._degraded_reason is None)
        self._closed = True

    # -- degraded mode --------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once persistent storage failure forced read-only mode."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        """Why the database degraded, or None while healthy."""
        return self._degraded_reason

    def _enter_degraded(self, reason: str) -> None:
        """Flip to read-only; called by WAL/disk on persistent failure."""
        if self._degraded_reason is None:
            self._degraded_reason = reason

    def _check_writable(self) -> None:
        if self._degraded_reason is not None:
            raise DatabaseDegradedError(
                f"database is read-only (degraded: {self._degraded_reason})"
            )

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- sessions -------------------------------------------------------------

    def _new_session(self, name: str | None) -> Session:
        return Session(self, name)

    def _session_pin(self) -> Snapshot | None:
        """The calling thread's session snapshot pin, if any."""
        sess = self._current_session(create=False)
        return sess.snapshot if sess is not None else None

    # -- transactions ---------------------------------------------------------

    def begin(
        self,
        *,
        lock_timeout: float | None = None,
        snapshot_reads: bool = False,
    ) -> Transaction:
        """Start an explicit transaction bound to the calling thread.

        ``lock_timeout`` overrides the database-wide lock deadline for this
        transaction only (the wait-for-graph detector resolves deadlocks
        long before the deadline; the deadline is the backstop).

        ``snapshot_reads=True`` makes it a **snapshot-read transaction**:
        it pins the current publication epoch and serves every read from
        that pinned snapshot -- no SHARED locks, no storage mutex, so it
        can never block a writer and no writer can ever block it.  Such a
        transaction is read-only; any mutation raises
        :class:`~repro.errors.ReadOnlySnapshotError`.
        """
        self._check_writable()
        if self.current_transaction() is not None:
            raise TransactionStateError(
                "a transaction is already active on this session"
            )
        sess = self._current_session()
        txn = Transaction(
            txid=next(self._txids),
            log=self._log,
            lock_manager=self._locks,
            undo=self._undo,
            on_finish=self._txn_finished,
            lock_timeout=lock_timeout,
        )
        txn.session = sess
        sess.txn = txn
        #: Publication epoch at begin: the blob reclaimer refuses to
        #: unlink a zero-ref candidate stamped at or after the oldest
        #: active transaction's start (its displacement could still be
        #: undone by an abort).
        txn.gc_start_epoch = self._store.snapshots.epoch
        with self._txn_mutex:
            self._active[txn.txid] = txn
        if snapshot_reads:
            txn.read_only = True
            txn.snapshot = self.snapshot()
        return txn

    def _txn_finished(self, txn: Transaction) -> None:
        probe.point("txn.finish")
        with self._txn_mutex:
            self._active.pop(txn.txid, None)
        sess = txn.session
        if sess is not None and sess.txn is txn:
            sess.txn = None
        if txn.snapshot is not None:
            # Unpin before anything can bail out below: a leaked pin would
            # retain every displaced entry forever.
            txn.snapshot.close()
            txn.snapshot = None
        if probe.crashed():
            # A simulated process death: the "dead" process must touch
            # nothing further (no publication, no checkpoint).  Locks were
            # already released by commit/abort cleanup.
            return
        # Publish what this transaction committed, or restored, for
        # snapshot readers; objects other active transactions touched
        # stay back.
        self._publish()
        if txn.state == "committed":
            self._pace_reclaim()
            if (
                self._checkpoint_threshold
                and self._log.size() > self._checkpoint_threshold
            ):
                with self._txn_mutex:
                    if not (
                        self._active or self._in_doubt or self._coord_decisions
                    ):
                        self._log.flush()
                        self._write_back()

    def _undo(self, txid: int, records: Sequence[LogRecord], touched: set[Oid] | None) -> None:
        """The one undo step: roll ``records`` back on disk and in memory.

        Under one hold of the storage mutex, and before the transaction
        releases any lock: the WAL undo (compensations logged), the
        catalog's handful of records, the store's inverse of what was
        undone (:meth:`VersionStore.undone`) and the indexes of the
        objects that moved.  ``touched`` bounds the objects to restore;
        None -- a partial operation, an in-doubt participant, or an undo
        that fails partway -- re-derives the whole store.  A simulated
        crash leaves memory alone: the dead process touches nothing more.
        """
        with self._storage_mutex:
            try:
                undo_operations(records, self._catalog.heap_by_id, self._log, txid)
            except BaseException:
                touched = None
                raise
            finally:
                if not probe.crashed():
                    self._catalog.reload()
                    self._indexes.refresh(self._store.undone(records, touched))

    def savepoint(self) -> int:
        """Mark a rollback point inside the current transaction."""
        txn = self.current_transaction()
        if txn is None:
            raise TransactionStateError("savepoints require an active transaction")
        return txn.savepoint()

    def rollback_to(self, savepoint: int) -> int:
        """Partially roll the current transaction back to a savepoint.

        The transaction stays active; everything after the savepoint is
        undone (durably -- the compensations are logged).  Returns the
        number of operations undone.
        """
        txn = self.current_transaction()
        if txn is None:
            raise TransactionStateError("savepoints require an active transaction")
        return txn.rollback_to(savepoint)

    def _txn_work(self, txid: int) -> int:
        """Operations logged by an active transaction (deadlock victim cost)."""
        with self._txn_mutex:
            txn = self._active.get(txid)
        return txn.op_count if txn is not None else 0

    # -- snapshots (lock-free read path) ----------------------------------------

    def _active_touched(self) -> set[Oid]:
        """Objects touched by transactions that are still active.

        Their live state is uncommitted, so snapshot publication must
        leave their committed-table slots alone.
        """
        with self._txn_mutex:
            out: set[Oid] = set()
            for txn in self._active.values():
                # The owning thread grows touched_oids without _txn_mutex;
                # a resize mid-union raises, and re-reading picks up the
                # racing oid (which must be excluded -- its txn is active).
                while True:
                    try:
                        out |= txn.touched_oids
                        break
                    except RuntimeError:  # set changed size during iteration
                        continue
            return out

    def snapshot(self) -> Snapshot:
        """Pin a lock-free point-in-time view of committed state.

        The snapshot serves ``materialize``, attribute reads, the paper-§4
        traversals, ``version_as_of``, clusters and ``query(...)`` scans
        against the publication epoch current at the call -- without the
        storage mutex and without SHARED locks, so pinned readers never
        block writers and writers never block them.  Uncommitted work of
        in-flight transactions is never visible.

        Use as a context manager (or call ``close()``) to unpin::

            with db.snapshot() as snap:
                weights = [p.weight for p in snap.cluster(Part)]

        References obtained from a snapshot stay bound to it; the view
        never changes, no matter what commits afterwards.
        """
        # Catch-up publish for mutations that bypassed a transaction
        # finish (direct store access, tools).  The common path --
        # everything unpublished belongs to active transactions -- skips
        # the storage mutex, so pinning cannot block behind a writer.
        self._publish()
        return self._store.pin_snapshot(index_source=self)

    def _publish(self) -> None:
        """Publish every unpublished object no active transaction touched;
        takes the storage mutex only when there is one."""
        if self._store.has_unpublished_changes(self._active_touched()):
            with self._storage_mutex:
                self._store.publish_snapshot(exclude=self._active_touched())

    def _mutate(self, lock_oid: Oid | None, op) -> Any:
        """Run ``op(log_op)`` inside the current or an autocommit txn."""
        self._check_writable()
        txn = self.current_transaction()
        if txn is not None and txn.read_only:
            raise ReadOnlySnapshotError(
                "snapshot-read transactions are read-only; "
                "use an ordinary transaction for writes"
            )
        if txn is not None:
            if lock_oid is not None:
                txn.lock(lock_oid, EXCLUSIVE)
                txn.touched_oids.add(lock_oid)
            try:
                with self._storage_mutex:
                    return op(txn.log_op)
            except BaseException:
                txn.cache_taint = True
                raise
        txn = self.begin()
        try:
            if lock_oid is not None:
                txn.lock(lock_oid, EXCLUSIVE)
                txn.touched_oids.add(lock_oid)
            with self._storage_mutex:
                result = op(txn.log_op)
        except BaseException:
            txn.cache_taint = True
            txn.abort()
            raise
        txn.commit()
        return result

    # -- kernel operations (paper §4) -------------------------------------------

    def pnew(self, obj: Any) -> Ref:
        """Create a persistent object; returns its generic reference."""

        def op(log_op):
            ref = self._store.pnew(obj, log_op)
            txn = self.current_transaction()
            if txn is not None:
                # An abort undoes the oid-counter bump, so this oid may be
                # handed out again -- its cache entries must die with the
                # txn.  Recorded here, still under the storage mutex, so a
                # concurrent commit's snapshot publication can never see
                # the new object as unowned (and thus publishable) before
                # this transaction finishes.
                txn.touched_oids.add(ref.oid)
            return ref

        ref = self._mutate(None, op)
        return Ref(self, ref.oid)

    def newversion(self, target: Ref | VersionRef | Oid | Vid) -> VersionRef:
        """Create a version derived from ``target`` (paper §4.2)."""
        oid = oid_of(target)
        vref = self._mutate(
            oid, lambda log_op: self._store.newversion(plain_id(target), log_op)
        )
        return VersionRef(self, vref.vid)

    def pdelete(self, target: Ref | VersionRef | Oid | Vid) -> None:
        """Delete an object (all versions) or one version (paper §4.4)."""
        oid = oid_of(target)
        self._mutate(oid, lambda log_op: self._store.pdelete(plain_id(target), log_op))

    # -- retention & garbage collection ---------------------------------------

    def set_retention(self, scope: Any, policy: "Any | None") -> Any:
        """:func:`repro.core.gc.set_retention` on this database."""
        return gc_engine.set_retention(self, scope, policy)

    def run_gc(
        self, batch_limit: int = 64, now: float | None = None, dry_run: bool = False
    ) -> Any:
        """One incremental GC pass (:func:`repro.core.gc.collect`) over the
        policy state :func:`repro.core.gc.load` reads; returns its
        :class:`~repro.core.gc.GCReport`."""
        state = gc_engine.load(self)
        return self._counted(gc_engine.collect(self, state, batch_limit, now, dry_run))

    def _counted(self, report: Any) -> Any:
        """Add a pass that was not a dry run to the ``gc.*`` counters."""
        if not report.dry_run:
            self._gc_counters["runs"] += 1
            self._gc_counters["versions_deleted"] += report.versions_deleted
        return report

    def reclaim_blobs(
        self, limit: int | None = None, dry_run: bool = False
    ) -> tuple[int, int, int]:
        """Unlink provably unreachable zero-ref blobs (bounded batch).

        Returns ``(unlinked, bytes_freed, candidates_remaining)``.  A
        candidate is eligible only when the epoch-reclamation signal
        clears it: its displacement has *published* (epoch advanced), no
        pinned snapshot predates the displacement, no active transaction
        -- the caller's own included -- started before it (an abort could
        revive the reference), and no 2PC participant is in doubt (its
        verdict may undo displacements wholesale).  Each batch journals a
        WAL ``GC_TOMBSTONE`` before the first unlink so a crash in any
        window is repaired at the next open.  Commits run this same step
        themselves (:meth:`_pace_reclaim`); this call forces one under the
        storage mutex and opens no transaction.  Either way the step ends
        by syncing the packs, so the ones its compaction emptied leave
        the disk before it returns.
        """
        self._check_writable()
        with self._storage_mutex:
            return self._reclaim(limit, dry_run)

    def _pace_reclaim(self) -> None:
        """Reclaim once garbage (candidate + dead pack bytes) has grown by
        :data:`~repro.storage.blobs.GARBAGE_PACE` x live payload bytes since
        the last attempt; candidates an attempt cannot clear (a pin, an older
        transaction, an in-doubt participant) wait for another such batch."""
        def due() -> bool:
            garbage, live = self._store.garbage_and_live_bytes()
            return garbage - self._gc_mark >= max(GARBAGE_PACE * live, 1)

        if self._degraded_reason is None and due():
            with self._storage_mutex:
                if due():
                    self._gc_counters["paced_runs"] += 1
                    try:
                        self._gc_counters["paced_bytes_freed"] += self._reclaim(None)[1]
                    except OSError:  # the commit is durable: do not fail it
                        pass  # the WAL counts a failed flush; the next commit retries

    def _reclaim(
        self, limit: int | None, dry_run: bool = False
    ) -> tuple[int, int, int]:
        """The one reclaim step (caller holds the storage mutex)."""
        store = self._store
        eligible = self._eligible_blob_keys(limit)
        remaining = len(store.gc_candidates()) - len(eligible)
        if dry_run:
            sizes = store.blob_entries()
            return (len(eligible), sum(sizes[key][1] for key in eligible), remaining)
        freed = 0
        if eligible:
            probe.point("gc.tombstone.pre")
            payload = serialization.encode(tuple(eligible))
            self._log.append(LogRecord(GC_TOMBSTONE, 0, payload=payload))
            self._log.flush()
            probe.point("gc.tombstone.post")
        for key in eligible:
            probe.point("gc.unlink.pre")
            freed += store.blobs.unlink(key)
            probe.point("gc.unlink.post")
            probe.point("gc.index.pre")
            store.drop_blob_entry(key)
            probe.point("gc.index.post")
        # Dead frames are only space: bound them (no journal), and retire
        # the packs that emptied once the copies are synced.
        store.blobs.compact()
        store.blobs.sync()
        # Candidates displaced but not yet published clear at that publish.
        self._gc_mark = store.garbage_and_live_bytes()[0] - store.unpublished_garbage()
        self._gc_counters["blobs_unlinked"] += len(eligible)
        self._gc_counters["bytes_freed"] += freed
        return (len(eligible), freed, remaining)

    def _eligible_blob_keys(self, limit: int | None) -> list[str]:
        """Candidates the epoch signal clears, oldest first (storage mutex
        held): none while a participant is in doubt, else those stamped
        before the epoch (displacement published), every pinned cut (it may
        predate it) and every active transaction's start (it may abort)."""
        with self._twopc_mutex:
            if self._in_doubt:
                return []
        snapshots = self._store.snapshots
        with self._txn_mutex:
            floors = [txn.gc_start_epoch for txn in self._active.values()]
        floors += [snapshots.epoch, snapshots.min_pinned_epoch()]
        floor = min(f for f in floors if f is not None)
        stamps = self._store.gc_candidates().items()
        eligible = sorted((stamp, key) for key, stamp in stamps if stamp < floor)
        return [key for _stamp, key in eligible[:limit]]

    # -- store protocol (used by Ref/VersionRef bound to this database) ------------

    def _read_snapshot(self, lock_oid: Oid | None = None) -> Snapshot | None:
        """The snapshot reads resolve against, or None for the live store.

        That is the pinned snapshot of a snapshot-read transaction, or,
        outside transactions, the session's pin.  An ordinary transaction
        reads the live store, taking a SHARED lock on ``lock_oid`` first
        (strict 2PL: read-modify-write cycles across transactions
        serialize instead of losing updates); the caller then reads under
        the storage mutex.  Autocommit reads are unlocked.
        """
        txn = self.current_transaction()
        if txn is None:
            return self._session_pin()
        if txn.snapshot is None and lock_oid is not None:
            txn.lock(lock_oid, SHARED)
        return txn.snapshot

    def _reader(self):
        """Where unlocked reads resolve: :meth:`_read_snapshot`, else the
        live store."""
        snap = self._read_snapshot()
        return snap if snap is not None else self._store

    def _read(self, oid: Oid, read: Callable[[Any], Any]) -> Any:
        """``read(source)``: the snapshot :meth:`_read_snapshot` picks (it
        S-locks ``oid`` inside a transaction), else the live store under
        the storage mutex."""
        snap = self._read_snapshot(oid)
        if snap is not None:
            return read(snap)
        with self._storage_mutex:
            return read(self._store)

    def materialize(self, vid: Vid) -> Any:
        """Decode a fresh copy of one version's object (S-locked inside a
        transaction, lock-free against a snapshot: :meth:`_read_snapshot`)."""
        return self._read(vid.oid, lambda source: source.materialize(vid))

    def version_bytes(self, vid: Vid) -> bytes:
        """The version's stored image, undecoded; locks as :meth:`materialize`."""
        return self._read(vid.oid, lambda source: source.version_bytes(vid))

    def read_attr(self, vid: Vid, name: str) -> Any:
        """Read one attribute through the store's shared decoded cache.

        The fast path behind generic-reference attribute access: returns
        the attribute value when it can safely be served from a shared
        cached instance, or :data:`repro.core.store.READ_MISS` when the
        caller must fall back to :meth:`materialize`.  Locking mirrors
        :meth:`materialize`.
        """
        return self._read(vid.oid, lambda source: source.read_attr(vid, name))

    def latest_vid(self, oid: Oid) -> Vid:
        """The version id an object id currently denotes (S-locked in txns)."""
        return self._read(oid, lambda source: source.latest_vid(oid))

    def write_version(self, vid: Vid, obj: Any) -> None:
        """Update a version in place (transactional, X-locks the object)."""
        self._mutate(vid.oid, lambda log_op: self._store.write_version(vid, obj, log_op))

    def write_version_if_changed(self, vid: Vid, obj: Any) -> bool:
        """:meth:`write_version`, skipped when ``obj`` matches the stored bytes.

        The dirtiness probe runs *before* entering a transaction: a pure
        reader method through a generic reference never pays the
        autocommit BEGIN/COMMIT + fsync, never takes the X lock, and never
        invalidates caches.  Returns True when a write happened.
        """
        # Under an explicit transaction the probe holds at least a read
        # lock, so the compared bytes cannot move underneath.
        snap = self._read_snapshot(vid.oid)
        if snap is not None:
            # Pure reader methods write back nothing; a genuinely dirty
            # receiver fails read-only inside the snapshot.
            return snap.write_version_if_changed(vid, obj)
        with self._storage_mutex:
            dirty = self._store.version_dirty(vid, obj)
        if not dirty:
            self._store.cache_stats.writebacks_skipped += 1
            return False
        self.write_version(vid, obj)
        return True

    def object_exists(self, oid: Oid) -> bool:
        """True while the object has at least one live version."""
        return self._reader().object_exists(oid)

    def version_exists(self, vid: Vid) -> bool:
        """True while the specific version is live."""
        return self._reader().version_exists(vid)

    def type_name(self, oid: Oid) -> str:
        """Stable type name of the object's class."""
        return self._reader().type_name(oid)

    def graph(self, target: Target) -> VersionGraph:
        """The object's version graph where reads currently resolve
        (read-only view).  The §4 traversals are built on it -- see
        :class:`~repro.core.surface.VersionReads`."""
        return self._reader().graph(target)

    # -- clusters & queries ----------------------------------------------------------

    def cluster(self, type_or_name: type | str) -> list[Ref]:
        """Generic references to every object of a type (the Ode cluster)."""
        return [Ref(self, ref.oid) for ref in self._reader().cluster(type_or_name)]

    def query(self, type_or_name: type | str) -> Query:
        """A ``suchthat``-style query over the type's cluster.

        Inside a snapshot-read transaction the query binds to the pinned
        snapshot, so iteration scans frozen state lock-free.
        """
        snap = self._read_snapshot()
        return Query(snap if snap is not None else self, type_or_name)

    # -- indexes ------------------------------------------------------------------

    def create_index(self, type_or_name: type | str, attr: str) -> HashIndex:
        """Create (idempotently) a hash index on one cluster attribute.

        Equality queries built with :func:`repro.core.indexes.attr_equals`
        then resolve through the index instead of scanning the cluster.
        """
        return self._indexes.ensure(type_or_name, attr)

    def create_ordered_index(self, type_or_name: type | str, attr: str) -> OrderedIndex:
        """Create (idempotently) an ORDERED index on one cluster attribute.

        Range queries built with :func:`repro.core.indexes.attr_between`
        then resolve through the index instead of scanning.
        """
        return self._indexes.ensure_ordered(type_or_name, attr)

    def drop_index(self, type_or_name: type | str, attr: str) -> None:
        """Remove an index (queries fall back to cluster scans)."""
        self._indexes.drop(type_or_name, attr)

    def index_lookup(self, type_name: str, attr: str, value) -> list[Oid] | None:
        """Index probe used by the query layer; None when not indexed."""
        oids = self._indexes.lookup(type_name, attr, value)
        return None if oids is None else sorted(oids)

    def index_lookup_range(
        self, type_name: str, attr: str, lo, hi
    ) -> list[Oid] | None:
        """Ordered-index probe used by the query layer; None when not indexed."""
        oids = self._indexes.lookup_range(type_name, attr, lo, hi)
        return None if oids is None else list(oids)

    def cluster_names(self) -> list[str]:
        """Type names with at least one live object."""
        return self._reader().cluster_names()

    def object_count(self) -> int:
        """Number of live persistent objects."""
        return self._reader().object_count()

    def export(self) -> list[tuple[Oid, str, int, list[VersionRecord]]]:
        """Every live object's whole history, oid order: what
        :meth:`VersionStore.export` yields, read under the storage mutex."""
        with self._storage_mutex:
            return list(self._store.export())

    def stats(self) -> dict[str, Any]:
        """Operational counters, namespaced by subsystem.

        Keys are grouped as ``pool.*``, ``wal.*``, ``cache.*``,
        ``locks.*``, ``txn.*``, ``snap.*``, ``faults.*``, plus
        ``degraded`` / ``degraded.reason``.
        """
        stats: dict[str, Any] = {
            "objects": self._store.object_count(),
            "pool.hits": self._pool.hits,
            "pool.misses": self._pool.misses,
            "pool.evictions": self._pool.evictions,
            "wal.bytes": self._log.size(),
            "wal.flushes": self._log.flush_count,
            "wal.group_piggybacks": self._log.group_piggybacks,
            "wal.write_failures": self._log.write_failures,
            "wal.payload_records": self._log.payload_records,
            "wal.payload_bytes": self._log.payload_bytes,
            "disk.pages": self._disk.num_pages,
            "disk.write_failures": self._disk.write_failures,
            "degraded": self._degraded_reason is not None,
            "degraded.reason": self._degraded_reason,
        }
        for key, value in self._store.stats().items():
            stats[f"cache.{key}"] = value
        stats.update(self._store.blob_stats())
        for key, value in self._gc_counters.items():
            stats[f"gc.{key}"] = value
        stats.update(self._store.snapshots.stats())
        stats.update(self._locks.stats())
        stats.update(self._resilience.as_dict())
        stats["sessions.open"] = self.session_count
        # Attached subsystems (the network server registers its ``net.*``
        # counters here); a source that died mid-teardown is skipped.
        for source in list(self._stats_sources):
            stats.update(source())
        # Injected-fault counters (zero outside fault-injection runs); the
        # injector is process-global, so these are not per-database.
        stats.update(probe.stats())
        return stats
