"""Write-ahead log and crash recovery.

Durability contract for the persistence library (paper §6: persistent
objects "continue to exist after the program that created them has
terminated"): every mutation of durable state is a heap-record operation,
and every heap-record operation is logged *before* its page is modified.

Log records are logical at record-id granularity:

* ``BEGIN(txid)`` / ``COMMIT(txid)`` / ``ABORT_END(txid)``
* ``OP(txid, kind, file_id, page_id, slot, payload, undo_payload)`` with
  ``kind`` in ``{INSERT, UPDATE, DELETE}``
* ``PREPARE`` / ``COORD_COMMIT`` / ``COORD_END``: two-phase commit
* ``GC_TOMBSTONE``: blob keys about to be unlinked
* ``PAYLOAD(txid, body)``: a blob frame's body, logged when the frame is
  appended and before any record that references it; redo-only, and
  redone for every transaction, losers included (``repro.storage.blobs``)

Recovery repeats history: it replays **all** ops from the last checkpoint in
log order (replay is last-writer-wins per record id, so this is idempotent),
then rolls back *losers* -- transactions with neither ``COMMIT`` nor
``ABORT_END`` -- by applying their undo images in reverse.  A transaction
aborted during normal operation logs its undo actions as ordinary ops (a
poor-man's CLR) followed by ``ABORT_END``, so recovery treats it as
finished.

Checkpoints are quiescent: with no transaction active, the blob packs and
the data file are brought up to the log and fsynced, and the log is
truncated to empty.  This keeps recovery simple (replay always starts at
offset 0) at the cost of a pause -- acceptable for the workloads in this
reproduction, and measured by experiment E11.

Frame format: ``u32 length | u32 crc32 | body``.  A torn final frame (short
read or CRC mismatch) ends replay cleanly; anything after it was never
acknowledged as committed because ``COMMIT`` is only acknowledged after
``flush()`` -- except a *prepared* transaction's, acknowledged on the
strength of its coordinator's flushed verdict (see repro.shard.coordinator).
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import probe
from repro.errors import SerializationError, WalError
from repro.storage import serialization

_FRAME = struct.Struct("<II")  # length, crc32

# Record kinds (on-disk values; never renumber).
BEGIN = 1
COMMIT = 2
ABORT_END = 3
OP_INSERT = 4
OP_UPDATE = 5
OP_DELETE = 6
# Two-phase commit (cross-shard transactions; see repro.shard).
PREPARE = 7
COORD_COMMIT = 8
COORD_END = 9
# Online GC: "these blob keys are about to be unlinked" (repro.core.gc).
# Journaled and flushed *before* the files go away, so a crash anywhere
# between tombstone and index update is repaired at recovery.
GC_TOMBSTONE = 10
#: A new blob frame's body.  The pack write is not forced; this record,
#: forced with the references that follow it, is the payload's durability.
PAYLOAD = 11


@dataclass(frozen=True)
class LogRecord:
    """One decoded WAL record."""

    kind: int
    txid: int
    file_id: int = 0
    page_id: int = 0
    slot: int = 0
    payload: bytes = b""
    undo_payload: bytes = b""

    @property
    def is_op(self) -> bool:
        """True for the three heap-operation kinds."""
        return self.kind in (OP_INSERT, OP_UPDATE, OP_DELETE)

    def to_bytes(self) -> bytes:
        """The body: uvarints kind, txid, file_id, page_id, slot and the
        payload's length, then the payload, then the undo image."""
        out = bytearray()
        for value in (self.kind, self.txid, self.file_id, self.page_id, self.slot):
            serialization.write_uvarint(out, value)
        serialization.write_uvarint(out, len(self.payload))
        out += self.payload
        out += self.undo_payload
        return bytes(out)

    @staticmethod
    def from_bytes(raw: bytes) -> LogRecord:
        """Decode a body; :class:`WalError` for anything :meth:`to_bytes`
        cannot have written (only reachable past a matching crc)."""
        fields, pos = [0] * 6, 0
        try:
            for i in range(6):
                fields[i], pos = serialization.read_uvarint(raw, pos)
        except SerializationError as exc:
            raise WalError(f"malformed log record body: {exc}") from exc
        end = pos + fields.pop()
        if end > len(raw):
            raise WalError("malformed log record body: payload overruns it")
        return LogRecord(*fields, bytes(raw[pos:end]), bytes(raw[end:]))


class LogManager:
    """Append-only WAL over one file, with buffered appends and group commit.

    ``append`` buffers in memory; ``flush`` writes and fsyncs.  The commit
    path appends its ``COMMIT`` record and then calls ``flush`` -- nothing is
    acknowledged before an fsync covering that record returns.

    Group commit: every append gets a sequence number, and ``flush``
    remembers the highest sequence an fsync has covered.  A flusher that
    arrives while another thread's fsync is in flight waits; if that fsync
    (which snapshots the shared buffer) covered its records, it returns
    without issuing its own fsync -- one disk barrier acknowledges the
    whole group.  With ``group_window > 0`` the flusher additionally
    lingers that many seconds before snapshotting, letting concurrent
    committers join the group even when their flushes would not otherwise
    overlap.  A flush that did not wait behind another always fsyncs, so
    an idle ``flush()`` still hits the disk (checkpoints rely on that).

    The linger only happens when at least one *other* flusher is pending
    (a solo commit pays fsync latency, never the window), ``append``
    wakes a lingering flusher, and the linger ends as soon as the group
    stops growing -- the window is a cap, not a tax.
    """

    def __init__(
        self, path: str | os.PathLike[str], group_window: float = 0.0
    ) -> None:
        self._path = os.fspath(path)
        if not os.path.exists(self._path):
            with open(self._path, "wb"):
                pass
        self._file = open(self._path, "r+b", buffering=0)
        #: Durable end of the log: where the next flush writes.
        self._end = self._file.seek(0, os.SEEK_END)
        self._buffer = bytearray()
        self._cond = threading.Condition()
        self._group_window = group_window
        self._seq = 0  # sequence of the newest appended record
        self._flushed_seq = 0  # highest sequence covered by a completed fsync
        self._flushing = False  # an fsync is in flight (I/O happens unlocked)
        self._pending_flushers = 0  # threads currently inside flush()
        #: Count of fsyncs, for the E11 micro-benchmarks.
        self.flush_count = 0
        #: ``PAYLOAD`` records appended, and the body bytes they carry.
        self.payload_records = self.payload_bytes = 0
        #: Flush calls satisfied by another thread's fsync (group commit).
        self.group_piggybacks = 0
        #: Total flush attempts that failed (write or fsync error).
        self.write_failures = 0
        #: Failures with no intervening success; resets on every good fsync.
        self._consecutive_failures = 0
        #: Consecutive failures that count as *persistent* storage failure.
        self.failure_threshold = 3
        #: Called once (with a reason string) when the threshold is crossed
        #: -- the database facade hooks this to enter degraded mode.
        self.on_persistent_failure: "Callable[[str], None] | None" = None
        self._failure_reported = False

    @property
    def path(self) -> str:
        """Path of the WAL file."""
        return self._path

    @property
    def flushed_seq(self) -> int:
        """Highest append sequence a completed fsync (or truncate) covers."""
        return self._flushed_seq

    def append(self, record: LogRecord) -> int:
        """Buffer one record and return its sequence number.

        Call :meth:`flush` to make it durable; it is once
        :attr:`flushed_seq` reaches the returned sequence.
        """
        probe.point("wal.append")
        body = record.to_bytes()
        frame = _FRAME.pack(len(body), zlib.crc32(body)) + body
        with self._cond:
            if self._file.closed:
                # A record nobody forces (a prepared participant's COMMIT)
                # must not vanish into the buffer of a dead log.
                raise WalError("append to a closed log")
            self._buffer.extend(frame)
            self._seq += 1
            if record.kind == PAYLOAD:
                self.payload_records += 1
                self.payload_bytes += len(record.payload)
            if self._flushing:
                # Wake a lingering group-commit flusher: the group grew.
                self._cond.notify_all()
            return self._seq

    def flush(self) -> None:
        """Make every record appended so far durable (one fsync per group)."""
        probe.point("wal.flush")
        with self._cond:
            self._pending_flushers += 1
        try:
            self._flush()
        finally:
            with self._cond:
                self._pending_flushers -= 1

    def _flush(self) -> None:
        with self._cond:
            target = self._seq
            while self._flushing:
                self._cond.wait()
                if self._flushed_seq >= target:
                    # An fsync we waited behind covered our records.  Checked
                    # at every wake-up: the leader may already be into its
                    # next flush, which we need not wait out.
                    self.group_piggybacks += 1
                    return
            self._flushing = True
            if self._group_window > 0.0 and self._pending_flushers > 1:
                # Linger with the lock released so concurrent committers can
                # append and join this group's single fsync.  A solo flusher
                # (no other thread pending) skips the linger entirely, and a
                # group lingers only while it keeps growing: each wait is a
                # short grace period, and a grace with no new append ends
                # the linger.  The window bounds the total linger.
                deadline = time.monotonic() + self._group_window
                grace = self._group_window * 0.25
                while True:
                    seen = self._seq
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        break
                    self._cond.wait(min(remaining, grace))
                    if self._seq == seen:
                        break  # the group stopped growing
            buf = bytes(self._buffer)
            self._buffer.clear()
            covered = self._seq
        ok = False
        write_start = self._end
        try:
            # I/O happens outside the lock so that piggybacking flushers can
            # register and appends are never blocked behind the disk.
            probe.point("wal.flush.pre_write")
            if buf:
                probe.write("wal.flush.write", self._file, buf)
            probe.point("wal.flush.post_write")
            self._file.flush()
            probe.point("wal.flush.pre_fsync")
            probe.point("wal.flush.fsync")
            os.fsync(self._file.fileno())
            probe.point("wal.flush.post_fsync")
            ok = True
        finally:
            if not ok and buf and not probe.crashed():
                # A failed write may have put a *partial* frame in the file.
                # The retry below re-appends the whole buffer, so without a
                # repair the log would read  <garbage prefix><good frames>
                # and replay -- which stops at the first bad frame -- would
                # never see the retried records even after their successful
                # fsync.  Truncate back to the pre-write offset so a retry
                # starts from a clean tail.  (Skipped after a simulated
                # crash: a dead process repairs nothing.)
                try:
                    self._file.truncate(write_start)
                    self._file.seek(write_start)
                except OSError:
                    pass  # the retry's flush will surface persistent failure
            notify: "Callable[[str], None] | None" = None
            reason = ""
            with self._cond:
                self._flushing = False
                if ok:
                    self._end += len(buf)
                    self._flushed_seq = max(self._flushed_seq, covered)
                    self.flush_count += 1
                    self._consecutive_failures = 0
                else:
                    # Keep the unwritten records so a retry can flush them.
                    self._buffer[:0] = buf
                    if not probe.crashed():
                        # A simulated crash is a dead process, not a sick
                        # disk -- only survivable failures count towards
                        # the persistent-failure threshold.
                        self.write_failures += 1
                        self._consecutive_failures += 1
                        if (
                            self._consecutive_failures >= self.failure_threshold
                            and not self._failure_reported
                            and self.on_persistent_failure is not None
                        ):
                            self._failure_reported = True
                            notify = self.on_persistent_failure
                            reason = (
                                "WAL flush failed "
                                f"{self._consecutive_failures} consecutive times"
                            )
                self._cond.notify_all()
            if notify is not None:
                notify(reason)

    def truncate(self) -> None:
        """Discard the entire log (only valid at a quiescent checkpoint)."""
        with self._cond:
            while self._flushing:
                self._cond.wait()
            probe.point("wal.truncate.pre")
            self._buffer.clear()
            self._flushed_seq = self._seq
            self._end = 0
            self._file.seek(0)
            self._file.truncate(0)
            self._file.flush()
            os.fsync(self._file.fileno())
            probe.point("wal.truncate.post")

    def size(self) -> int:
        """Durable log size in bytes (excludes the unflushed buffer)."""
        return self._end

    def records(self) -> Iterator[LogRecord]:
        """Iterate durable records from the start; stops at a torn tail."""
        with self._cond:
            while self._flushing:
                self._cond.wait()
            self._file.seek(0)
            data = self._file.read()
            self._file.seek(0, os.SEEK_END)
        pos = 0
        n = len(data)
        while pos + _FRAME.size <= n:
            length, crc = _FRAME.unpack_from(data, pos)
            body_start = pos + _FRAME.size
            body_end = body_start + length
            if body_end > n or not length:
                break  # torn tail (no record is empty: zeros are a tail too)
            body = data[body_start:body_end]
            if zlib.crc32(body) != crc:
                break  # torn or corrupt tail
            yield LogRecord.from_bytes(body)
            pos = body_end

    def close(self, flush: bool = True) -> None:
        """Flush and close.  Idempotent.

        ``flush=False`` skips the final flush -- used when the database
        closes in degraded mode and the disk is known to reject writes.
        """
        if self._file.closed:
            return
        if flush:
            self.flush()
        self._file.close()


@dataclass(frozen=True)
class InDoubtTransaction:
    """A participant that crashed between ``PREPARE`` and the decision.

    Its ops were replayed (the prepared state is durable by contract), and
    they are retained here in log order so a presumed-abort resolution can
    apply the undo images in reverse.  ``gtxid`` is the global transaction
    id from the PREPARE payload; ``coordinator`` names the shard whose WAL
    holds (or never held) the commit decision.
    """

    txid: int
    gtxid: tuple
    coordinator: int
    participants: tuple[int, ...]
    ops: tuple[LogRecord, ...]


@dataclass
class RecoveryReport:
    """What :func:`recover` did -- asserted on by the crash-recovery tests."""

    records_scanned: int = 0
    ops_replayed: int = 0
    loser_txids: tuple[int, ...] = ()
    ops_undone: int = 0
    #: Prepared-but-undecided participants keyed by local txid.  The owner
    #: must resolve each one (commit or presumed abort) before accepting
    #: new work that could observe the prepared state.
    in_doubt: dict[int, InDoubtTransaction] = field(default_factory=dict)
    #: Surviving coordinator commit decisions: gtxid -> participant shards.
    #: A decision followed by ``COORD_END`` has been forgotten.
    coord_decisions: dict[tuple, tuple[int, ...]] = field(default_factory=dict)
    #: Highest txid seen anywhere in the scanned log (0 for an empty one).
    #: When the WAL is retained past recovery (in-doubt participants or
    #: surviving decisions block truncation), the owner must hand out new
    #: txids above this floor, or a retained loser's records could be
    #: mistaken for a fresh winner's on the next recovery.
    max_txid: int = 0
    #: Blob keys named by ``GC_TOMBSTONE`` records, in log order.  Collected
    #: from *every* transaction, committed or loser: the tombstone means "an
    #: unlink may have happened", and the repair pass (see
    #: ``Database._repair_gc_tombstones``) is idempotent either way.
    gc_tombstones: tuple[str, ...] = ()
    #: ``PAYLOAD`` records handed to ``redo_payload``.
    payloads_redone: int = 0


def recover(
    log: LogManager,
    heap_resolver,
    redo_payload: "Callable[[bytes], object] | None" = None,
) -> RecoveryReport:
    """Replay the WAL onto the heap files and roll back losers.

    ``heap_resolver(file_id)`` must return an object with the replay
    surface of :class:`repro.storage.heap.HeapFile`:
    ``replay_insert(page_id, slot, payload)`` and
    ``replay_delete(page_id, slot)``.  ``redo_payload(body)`` (the blob
    store's idempotent ``put``) receives every ``PAYLOAD`` body in log
    order, whoever logged it: a winner may reference a frame a loser
    appended, and an unreferenced frame is only a GC candidate.

    Pass 1 classifies transactions (losers have neither ``COMMIT`` nor
    ``ABORT_END``).  Pass 2 folds the log into a **final state per record
    id**: for a record touched by a loser, the state *before* the loser's
    first op on it (strict 2PL guarantees loser ops are a contiguous suffix
    of any record's op sequence); otherwise the state after its last op.
    Pass 3 applies each final state exactly once.  Applying final states
    (rather than naively repeating history op-by-op) is what makes replay
    insensitive to how many dirty pages reached disk before the crash: a
    page is never asked to transiently hold both an old and a new
    generation of its records.

    Two-phase commit: a transaction with a ``PREPARE`` record but neither
    ``COMMIT`` nor ``ABORT_END`` is **in-doubt**, not a loser.  Its ops are
    replayed like a winner's (the prepare promise is "I can still commit"),
    its op records are retained in :attr:`RecoveryReport.in_doubt` so the
    owner can roll it back if the coordinator decided abort, and it keeps
    the heap out of bounds for truncation until resolved.  ``COORD_COMMIT``
    records (logged under txid 0, which classification already ignores)
    surface in :attr:`RecoveryReport.coord_decisions` unless a matching
    ``COORD_END`` shows the decision was already delivered everywhere.
    """
    records = list(log.records())
    finished: set[int] = set()
    seen: set[int] = set()
    prepared: dict[int, tuple] = {}
    decisions: dict[tuple, tuple[int, ...]] = {}
    ended: set[tuple] = set()
    tombstones: list[str] = []
    tombstone_seen: set[str] = set()
    payloads = 0
    for rec in records:
        seen.add(rec.txid)
        if rec.kind == PAYLOAD and redo_payload is not None:
            redo_payload(rec.payload)
            payloads += 1
        elif rec.kind in (COMMIT, ABORT_END):
            finished.add(rec.txid)
        elif rec.kind == PREPARE:
            gtxid, coordinator, participants = serialization.decode(rec.payload)
            prepared[rec.txid] = (gtxid, coordinator, tuple(participants))
        elif rec.kind == COORD_COMMIT:
            gtxid, participants = serialization.decode(rec.payload)
            decisions[gtxid] = tuple(participants)
        elif rec.kind == COORD_END:
            ended.add(serialization.decode(rec.payload))
        elif rec.kind == GC_TOMBSTONE:
            for key in serialization.decode(rec.payload):
                if key not in tombstone_seen:
                    tombstone_seen.add(key)
                    tombstones.append(key)
    in_doubt_ids = set(prepared) - finished
    losers = tuple(sorted(seen - finished - in_doubt_ids - {0}))
    loser_set = set(losers)

    report = RecoveryReport(
        records_scanned=len(records),
        loser_txids=losers,
        coord_decisions={
            g: parts for g, parts in decisions.items() if g not in ended
        },
        max_txid=max(seen, default=0),
        gc_tombstones=tuple(tombstones),
        payloads_redone=payloads,
    )
    in_doubt_ops: dict[int, list[LogRecord]] = {t: [] for t in in_doubt_ids}

    # rid -> (present, payload, from_undo).  Ordered dict: first-touch order.
    final: dict[tuple[int, int, int], tuple[bool, bytes, bool]] = {}
    for rec in records:
        if not rec.is_op:
            continue
        if rec.txid in in_doubt_ops:
            in_doubt_ops[rec.txid].append(rec)
        rid = (rec.file_id, rec.page_id, rec.slot)
        if rec.txid in loser_set:
            if rid in final and final[rid][2]:
                continue  # already frozen at the pre-loser state
            if rec.kind == OP_INSERT:
                final[rid] = (False, b"", True)
            else:  # UPDATE or DELETE carry the pre-image
                final[rid] = (True, rec.undo_payload, True)
            continue
        if rec.kind in (OP_INSERT, OP_UPDATE):
            final[rid] = (True, rec.payload, False)
        else:
            final[rid] = (False, b"", False)

    for (file_id, page_id, slot), (present, payload, from_undo) in final.items():
        heap = heap_resolver(file_id)
        if present:
            heap.replay_insert(page_id, slot, payload)
        else:
            heap.replay_delete(page_id, slot)
        if from_undo:
            report.ops_undone += 1
        else:
            report.ops_replayed += 1
    for txid in sorted(in_doubt_ids):
        gtxid, coordinator, participants = prepared[txid]
        report.in_doubt[txid] = InDoubtTransaction(
            txid=txid,
            gtxid=gtxid,
            coordinator=coordinator,
            participants=participants,
            ops=tuple(in_doubt_ops[txid]),
        )
    return report
