"""Crash-matrix harness: deterministic fault injection x recovery verification.

For every enumerated scenario the harness runs one mixed workload
(creates, in-place writes, ``newversion``, ``pdelete``, savepoint +
``rollback_to``, a deliberately aborted transaction -- on two concurrent
worker threads) against a fresh database while exactly one fault is
armed: a crash, a torn write, a short write, or an fsync failure at a
named point (see :mod:`repro.storage.faults` and :mod:`repro.probe`).
When the fault fires, the simulated process is dead -- every subsequent
fault point raises, so not even ``abort`` handlers can touch the files.

The harness then reopens the database (running WAL recovery) and
demands four things:

1. ``tools.check.check_database(db, strict=True)`` reports no problems:
   graphs validate, payloads materialize, pages are structurally sound,
   the durable object table round-trips, the id counter is safe;
2. the recovered state is admissible.  Each workload mirrors its calls
   into a reference model (:class:`repro.verify.model.ModelStore`):
   ``committed`` holds what was acknowledged, ``pending`` a clone with
   the in-flight operation applied.  The decoded ``export()`` must equal
   an admissible model's -- whole histories, ``dprev`` links and serial
   high-water marks, not just newest values.  Admissible is committed or
   pending (``plain``); pending exactly when the in-flight transfer's
   verdict was durable (``twopc``); committed less any versions
   retention dooms (``gc``);
3. no loser effects are visible: in-flight creates either exist
   completely or not at all, and no untracked objects appear;
4. recovery is a fixed point: after the checks, a clean close and
   reopen leaves ``export()`` unchanged, creation times included.

A mutation that swaps two recovered versions' payloads at open, which
every newest-value check passes, fails rows here
(``tests/integration/test_crash_matrix.py``).

Fidelity notes.  The workload runs on a real filesystem, which is the
*kindest possible* page cache: ordinary writes are never lost, so loss
is modelled explicitly (torn/short writes materialize the worst-case
partial write; a "crash" freezes the files exactly as written).  Packs
are the exception: no commit forces them (the log carries new payloads),
so every scenario then cuts the pack bytes no fsync covered (``hole``
rows zero the first frame of them instead).  Data
pages are assumed to be written atomically at page granularity -- the
classic ARIES assumption absent full-page logging -- so torn-write
scenarios target the WAL (frame CRCs detect the tear) and the meta page
(torn-safe by layout), not data pages.

Three matrices, each a ``--scenario`` name: ``plain`` (the default; the
mixed workload above), ``twopc`` (cross-shard transfers through every
2PC window) and ``gc`` (retention pruning and blob reclaim).

Run it:

    PYTHONPATH=src python -m repro.tools.crashmatrix [--scenario plain|twopc|gc ...] [--smoke] [-v]
"""

from __future__ import annotations

import os
import random
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from repro import Database, PersistentObject, StoragePolicy, persistent, probe
from repro.core.identity import Vid
from repro.core.pointers import Ref
from repro.shard import ShardedDatabase
from repro.storage import blobs
from repro.storage.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFaultError,
    SimulatedCrash,
)
from repro.storage.heap import Rid
from repro.storage.serialization import decode
from repro.storage.wal import COORD_END, LogManager
from repro.tools import harness
from repro.tools.check import check_database
from repro.tools.harness import Result
from repro.verify.model import ModelStore, history

#: Rounds of mixed operations per worker thread.
ROUNDS = 8

#: Bytes added to the blob payload per growth step; sized so later steps
#: exceed one page (forcing spanning records) and shrink-then-grow cycles
#: force in-page compaction.
BLOB_CHUNK = 1300

#: newversions per explicit-transaction batch.  Graph state costs ~25
#: bytes per node in the object table, so two batches push that record
#: past one page -- the spanning/compaction paths no version record
#: reaches (a payload over 256 bytes is a fixed-size blob reference).
HISTORY_BATCH = 85

_JOIN_TIMEOUT = 60.0

#: Databases the running workload opened (shards included): each loses its
#: unsynced pack bytes before :func:`_crash_and_reopen` reopens.
_opened: list[Database] = []


@persistent(name="crashmatrix.Item")
class Item(PersistentObject):
    """Small versioned record: exercises the object table + version graphs."""

    def __init__(self, tag: int = 0, val: int = 0) -> None:
        self.tag = tag
        self.val = val


@persistent(name="crashmatrix.Blob")
class Blob(PersistentObject):
    """Growing payload: exercises page growth, compaction, and spanning."""

    def __init__(self, tag: int = 0, text: str = "") -> None:
        self.tag = tag
        self.text = text


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One armed fault (plus an optional second fault during recovery)."""

    failpoint: str
    action: str  # "crash" | "torn_write" | "short_write" | "fsync_error"
    hit: int = 1
    keep: int = 0
    #: When set, a *second* crash is armed while recovery itself runs
    #: (the reopen), and recovery must then succeed on a third, clean open.
    recovery_failpoint: str | None = None
    #: Run :func:`_run_shared_content_workload` instead of the mixed one.
    shared_content: bool = False
    #: Zero the first unsynced pack frame instead of cutting them all.
    hole: bool = False
    #: GC matrix: run the 2PC transfer workload on this many shards with
    #: blob-sized accounts and no collector -- every reclaim is the pacer's.
    rewrite: int = 0
    #: 2PC matrix: run the lazy-COMMIT steps (see :func:`_twopc_steps`),
    #: with a single-shard commit forcing the log of each shard named here.
    lazy_flush: tuple[int, ...] | None = None
    #: 2PC matrix, checked when set: verdicts released (``COORD_END``
    #: appended) before the crash; in-doubt participants the clean reopen
    #: resolves, as ``(committed, aborted)``.
    expect_released: int | None = None
    expect_resolution: tuple[int, int] | None = None
    #: The matrix the row belongs to, which picks its workload and
    #: verifier (see :data:`_FAMILIES`); not part of the name.
    matrix: str = "plain"

    @property
    def name(self) -> str:
        parts = [self.failpoint, self.action, f"hit{self.hit}"]
        if self.shared_content:
            parts.append("shared-content")
        if self.hole:
            parts.append("hole")
        if self.rewrite:
            parts.append(f"rewrite{self.rewrite}")
        if self.lazy_flush is not None:
            parts.append("lazy-flush" + "".join(map(str, self.lazy_flush)))
        if self.action in ("torn_write", "short_write"):
            parts.append(f"keep{self.keep}")
        if self.recovery_failpoint:
            parts.append(f"then-{self.recovery_failpoint}")
        return ":".join(parts)

    def plan(self) -> FaultPlan:
        """The armed fault: the action names a :class:`FaultPlan` method."""
        writes = self.action in ("torn_write", "short_write")
        kwargs = {"keep": self.keep} if writes else {}
        return getattr(FaultPlan(), self.action)(self.failpoint, hit=self.hit, **kwargs)


#: hit ordinals per failpoint for plain crash scenarios.  Frequent
#: failpoints get a second, higher ordinal so the crash also lands deep
#: in the workload (mid-transaction, mid-rollback, mid-checkpoint).
_CRASH_HITS: dict[str, tuple[int, ...]] = {
    "wal.append": (1, 30),
    "wal.flush.pre_write": (1, 8),
    "wal.flush.post_write": (1, 8),
    "wal.flush.pre_fsync": (1, 8),
    "wal.flush.post_fsync": (1, 8),
    # The checkpoint's write-back: before its pack fsync, and between
    # that fsync and the truncate that forgets the logged payloads.
    "blobs.sync.fsync": (1, 2),
    "wal.truncate.pre": (1, 2),
    "wal.truncate.post": (1, 2),
    "disk.write_page.pre": (1, 6),
    # A *crash* at the write site dies before any byte is written, which
    # respects the page-write-atomicity assumption (torn data pages are
    # out of scope -- see the module docstring).
    "disk.write_page.write": (1, 6),
    "disk.write_page.post": (1, 6),
    # hit=1 fires while the database file is being *created* (all-zero
    # meta page on reopen); hit=5 fires on a steady-state meta update.
    "disk.write_meta.pre": (1, 5),
    "disk.allocate.pre": (2, 6),
    "disk.allocate.post": (2, 6),
    # Not reached by this workload (no vacuum); kept so arming unreached
    # failpoints is exercised too.
    "disk.free_page": (1,),
    "disk.ensure_allocated": (1,),
    "disk.sync.pre": (1, 2),
    "disk.sync.fsync": (1, 2),
    "disk.sync.post": (1, 2),
    "heap.insert.pre": (1, 20),
    "heap.insert.post": (1, 20),
    "heap.update.pre": (1, 15),
    "heap.update.post": (1, 15),
    "heap.delete.pre": (1, 4),
    "heap.delete.post": (1, 4),
    "heap.span.fragment": (1, 4),
    # Fire during transaction abort / savepoint rollback in the workload
    # (undo uses the replay helpers), i.e. a crash *mid-rollback*.
    "heap.replay_insert": (1, 6),
    "heap.replay_delete": (1,),
    "page.compact": (1,),
    "page.update.grow": (1, 5),
}


def enumerate_scenarios(smoke: bool = False) -> list[Scenario]:
    """The full crash matrix (or a small smoke subset for CI)."""
    scenarios: list[Scenario] = []
    for failpoint, hits in _CRASH_HITS.items():
        assert probe.POINTS[failpoint] != probe.YIELD, failpoint
        for hit in hits:
            scenarios.append(Scenario(failpoint, "crash", hit=hit))
    # Torn writes: WAL frames (CRC detects the tear) and the meta page
    # (torn-safe by layout; hit >= 2 so creation's first meta write -- the
    # only one whose magic bytes are not a same-value overwrite -- lands).
    for hit, keep in ((2, 7), (6, -3)):
        scenarios.append(Scenario("wal.flush.write", "torn_write", hit=hit, keep=keep))
    for hit, keep in ((2, 7), (4, 12)):
        scenarios.append(
            Scenario("disk.write_meta.write", "torn_write", hit=hit, keep=keep)
        )
    # Short write: the process survives, the transaction aborts, and the
    # WAL's truncate-back repair must keep the file replayable.
    scenarios.append(Scenario("wal.flush.write", "short_write", hit=3, keep=10))
    # fsync failures: surfaced to the caller, transaction aborts cleanly.
    errors = [name for name, kind in probe.POINTS.items() if kind == probe.ERROR]
    for failpoint in sorted(errors):
        scenarios.append(Scenario(failpoint, "fsync_error", hit=1))
    # Double crash: the first recovery is itself interrupted.
    scenarios.append(
        Scenario(
            "heap.update.post", "crash", hit=10, recovery_failpoint="heap.replay_insert"
        )
    )
    scenarios.append(
        Scenario(
            "wal.flush.post_write", "crash", hit=6, recovery_failpoint="wal.truncate.pre"
        )
    )
    # The first storer of a shared content key dies mid-abort: its first
    # undo step is the workload's first replay (see the workload).
    scenarios.append(
        Scenario("heap.replay_insert", "crash", hit=1, shared_content=True)
    )
    if smoke:
        scenarios = _smoke(scenarios, lambda s: (s.failpoint, s.action, s.shared_content))
    return scenarios


def _smoke(scenarios: list[Scenario], key, *keep: Scenario) -> list[Scenario]:
    """A smoke subset: the first row of each ``key``, then ``keep``."""
    picked: dict = {}
    for scenario in scenarios:
        picked.setdefault(key(scenario), scenario)
    return [*picked.values(), *keep]


# -- workload ----------------------------------------------------------------


class _Worker:
    """One workload thread plus its ledger, a model of its two objects.

    Before issuing an operation the worker applies it to a clone of the
    ``committed`` model, held as ``pending``; once the database call
    returns (the commit is acknowledged) the clone becomes ``committed``.
    A crash can therefore leave at most one operation pending, and
    recovery must export the committed model or the pending one --
    nothing else.
    """

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.committed = ModelStore()
        self.pending: ModelStore | None = None
        self.item: Ref | None = None
        self.blob: Ref | None = None
        #: Set while a pnew is in flight (oid unknown until it returns).
        self.creating = False
        self.error: BaseException | None = None

    def _attempt(self, change: Callable[[ModelStore], object], fn) -> None:
        pending = self.committed.clone()
        change(pending)
        self.pending = pending
        fn()
        self.committed, self.pending = pending, None

    def _write(self, ref: Ref, value: PersistentObject, attr: str) -> None:
        """One autocommit attribute write of ``value``'s ``attr``."""
        self._attempt(
            lambda model: model.write(ref.oid, value),
            lambda: setattr(ref, attr, getattr(value, attr)),
        )

    def _pnew(self, db: Database, obj: PersistentObject) -> Ref:
        ref = db.pnew(obj)
        self.committed.pnew(ref.oid, obj)
        return ref

    # -- the workload --------------------------------------------------------

    def setup(self, db: Database) -> None:
        """Create this worker's objects (runs on the main thread)."""
        self.creating = True
        self.item = self._pnew(db, Item(tag=self.wid, val=0))
        self.blob = self._pnew(db, Blob(tag=self.wid, text=f"B{self.wid}:" + "x" * 600))
        self.creating = False

    def run(self, db: Database) -> None:
        try:
            for j in range(ROUNDS):
                self._step(db, j)
            self._aborted_txn(db)
        except (SimulatedCrash, InjectedFaultError):
            pass  # expected: the armed fault fired on this thread
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised by runner
            # Once the other thread's fault has killed the "process", what
            # this one still reads in memory (a table mid-reload) is moot.
            if not probe.crashed():
                self.error = exc

    def _step(self, db: Database, j: int) -> None:
        item, blob = self.item, self.blob
        assert item is not None and blob is not None
        op = j % 5
        base = 1000 * (self.wid + 1) + j
        if op == 0:
            # Autocommit attribute write through the generic reference.
            self._write(item, Item(self.wid, base + 100), "val")
        elif op == 1:
            # Explicit transaction: a *batch* of newversions + a write.
            # Version records stay small (an inline payload of at most
            # 256 bytes, or a fixed-size blob reference), so the record
            # that grows with use is the object table's graph-state
            # entry -- the batches push it past a page (forcing spanning
            # + in-page compaction).
            val = base + 200

            def model_fn(model: ModelStore) -> None:
                for _ in range(HISTORY_BATCH):
                    model.newversion(item.oid)
                model.write(item.oid, Item(self.wid, val))

            def txn_fn() -> None:
                with db.transaction():
                    for _ in range(HISTORY_BATCH):
                        db.newversion(item)
                    item.val = val

            self._attempt(model_fn, txn_fn)
        elif op == 2:
            # Shrink then grow the blob: two autocommits.  The shrink
            # leaves a hole; the regrow forces compaction / relocation /
            # spanning once the payload outgrows a page.
            self._write(blob, Blob(self.wid, "s"), "text")
            self._write(blob, Blob(self.wid, "b" * (BLOB_CHUNK * (j + 2))), "text")
        elif op == 3:
            # Savepoint dance: the rolled-back write must never surface.
            val = base + 300

            def sp_fn() -> None:
                with db.transaction():
                    item.val = 777
                    sp = db.savepoint()
                    item.val = 888
                    db.rollback_to(sp)
                    item.val = val

            self._attempt(lambda model: model.write(item.oid, Item(self.wid, val)), sp_fn)
        elif self.committed.version_count(item.oid) > 3:
            # Prune the two oldest versions once history is deep enough
            # (exercises heap.delete on the version-index records).  Each
            # pdelete is its own autocommit, so each gets its own ledger
            # attempt (a crash between them is a valid intermediate state).
            for _ in range(2):
                self._attempt(
                    lambda model: model.vdelete(item.oid, model.serials(item.oid)[0]),
                    lambda: db.pdelete(db.versions(item)[0]),
                )
        else:
            self._write(item, Item(self.wid, base + 400), "val")

    def _aborted_txn(self, db: Database) -> None:
        """A transaction that aborts on purpose: undo must erase it.

        The insert (``newversion``) exercises ``heap.replay_delete`` and
        the update exercises ``heap.replay_insert`` during the abort.
        """
        try:
            with db.transaction():
                db.newversion(self.item)
                self.item.val = 999_999
                raise _DeliberateAbort()
        except _DeliberateAbort:
            pass


class _DeliberateAbort(Exception):
    pass


@contextmanager
def _until_the_fault():
    """Run the body until it finishes or the armed fault fires.

    The body passes each database it opens through the yielded function,
    which registers it (shards included) in :data:`_opened`.  If the
    simulated machine survives, its databases are closed; if it died, the
    files are left exactly as they lie -- no close, no abort.
    """
    live = []

    def opened(db):
        live.append(db)
        _opened.extend(getattr(db, "shards", [db]))
        return db

    try:
        yield opened
        if not probe.crashed():
            for db in live:
                db.close()
    except (SimulatedCrash, InjectedFaultError):
        pass


def _run_workload(path: Path, scenario: Scenario) -> list[_Worker]:
    """Run the mixed workload until it completes or the armed fault fires.

    Always returns the workers (and their ledgers), even on a crash.
    """
    if scenario.shared_content:
        return _run_shared_content_workload(path)
    workers = [_Worker(0), _Worker(1)]
    with _until_the_fault() as opened:
        db = opened(Database(path, pool_size=8))
        for worker in workers:
            worker.setup(db)
        db.checkpoint()
        threads = [
            threading.Thread(
                target=worker.run, args=(db,), name=f"crashmatrix-w{worker.wid}"
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=_JOIN_TIMEOUT)
            if thread.is_alive():
                raise RuntimeError(f"workload thread {thread.name} hung")
        if not probe.crashed():
            db.checkpoint()
    for worker in workers:
        if worker.error is not None:
            raise worker.error
    return workers


def _run_shared_content_workload(path: Path) -> list[_Worker]:
    """Two transactions store the same content; the first storer loses.

    T1 is the first to store content K (in one object) and never commits;
    T2 stores K in another object and commits, which also makes T1's
    records durable; T1 then aborts and the armed crash kills the process
    at its first undo step.  Recovery must undo T1 without costing T2 its
    payload: K's only durable reference count is T2's record itself.
    """
    workers = [_Worker(0), _Worker(1)]
    with _until_the_fault() as opened:
        db = opened(Database(path, pool_size=8))
        for worker in workers:
            # Equal tags: equal texts are then equal payloads, one key.
            worker.blob = worker._pnew(db, Blob(tag=0, text=f"B{worker.wid}:" + "x" * 600))
        db.checkpoint()
        first, second = workers[0].blob, workers[1].blob
        shared = "k" * BLOB_CHUNK
        session = db.session("first-storer")
        with session.activate():
            txn = db.begin()
            first.text = shared
        workers[1]._write(second, Blob(tag=0, text=shared), "text")
        with session.activate():
            txn.abort()
    return workers


# -- verification ------------------------------------------------------------


def _recovered(db: Database | ShardedDatabase) -> dict:
    """The database's state in :meth:`ModelStore.export`'s shape."""
    return history(db.export(), decode)


def _difference(got: dict, want: dict) -> str:
    """Where a recovered state first departs from a model's, in words."""
    key = min(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    if key not in got or key not in want:
        return f"oid {key.value} {'lost' if key in want else 'not in the model'}"
    (got_max, got_rows), (want_max, want_rows) = got[key], want[key]
    lost = sorted({r[0] for r in want_rows} - {r[0] for r in got_rows})
    extra = sorted({r[0] for r in got_rows} - {r[0] for r in want_rows})
    if lost or extra:
        return f"oid {key.value}: serials {lost} lost, {extra} not in the model"
    for got_row, want_row in zip(got_rows, want_rows):
        if got_row != want_row:
            what = "dprev" if got_row[1] != want_row[1] else "value"
            return f"oid {key.value} serial {got_row[0]}: {what} differs from the model's"
    return f"oid {key.value}: max serial {got_max}, the model's {want_max}"


def _verify(
    db: Database, workers: list[_Worker], scenario: Scenario, problems: list[str]
) -> None:
    """Each worker's objects export its committed model or its pending
    one; every object left over is a loser."""
    real = _recovered(db)
    for worker in workers:
        want = worker.committed.export()
        got = {key: real.pop(key) for key in want if key in real}
        if got != want and (worker.pending is None or got != worker.pending.export()):
            problems.append(
                f"worker {worker.wid}: recovered state is not the committed "
                f"model{'' if worker.pending is None else ' or the pending one'} "
                f"({_difference(got, want)})"
            )
    # Loser absence: the only admissible untracked object is a single
    # in-flight pnew (setup is sequential), and then only whole or absent
    # -- partial presence is caught by the strict check above.
    budget = 1 if any(w.creating for w in workers) else 0
    if len(real) > budget:
        problems.append(
            f"{len(real)} untracked object(s) {sorted(o.value for o in real)} "
            f"survived recovery (at most {budget} in-flight create admissible)"
        )


def _usability_probe(
    db: Database, ledger, scenario: Scenario, problems: list[str]
) -> None:
    """The recovered database must accept new work."""
    try:
        ref = db.pnew(Item(tag=99, val=1))
        db.newversion(ref)
        ref.val = 2
        if ref.val != 2 or db.version_count(ref) != 2:
            problems.append("post-recovery probe object read back wrong")
        db.pdelete(ref)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        problems.append(f"post-recovery write probe failed: {exc!r}")


# -- the matrix core ----------------------------------------------------------


class _Family(NamedTuple):
    """How one matrix's rows run.  ``workload(path, scenario)`` runs under
    the armed fault and returns its ledger; ``reopen(path)`` recovers;
    ``verify`` and then ``probe``, both ``(db, ledger, scenario,
    problems)``, judge the recovered database.  With ``must_fire``, a row
    whose fault never fired is a failure."""

    workload: Callable
    reopen: Callable
    verify: Callable
    probe: Callable
    must_fire: bool


def _crash_and_reopen(path: Path, scenario: Scenario, family: _Family):
    """Run the workload with the scenario's fault armed, optionally crash
    a second time while recovery itself runs (``reopen(path)`` under
    ``recovery_failpoint``), then reopen cleanly.  Returns ``(result,
    workload's ledger, handle)``; the handle is None when the clean
    reopen failed."""
    _opened.clear()
    injector = probe.attach(FaultInjector(scenario.plan()))
    try:
        ledger = family.workload(path, scenario)
    finally:
        probe.detach()
    result = Result(scenario.name)
    result.counts.update(fired=int(bool(injector.fired)), crashed=int(injector.crashed))
    holes = [_lose_unsynced(db, scenario.hole) for db in _opened]
    _opened.clear()
    if scenario.hole and not any(holes):
        result.problems.append("no unsynced frame had a valid one after it")
    if scenario.recovery_failpoint is not None:
        probe.attach(FaultInjector(FaultPlan().crash(scenario.recovery_failpoint, hit=1)))
        try:
            family.reopen(path).close()
            result.problems.append(
                f"recovery never reached {scenario.recovery_failpoint}"
            )
        except SimulatedCrash:
            result.counts["recovery_crashed"] = 1
        finally:
            probe.detach()
    try:
        return result, ledger, family.reopen(path)
    except Exception as exc:  # noqa: BLE001 - unrecoverable = the finding
        result.problems.append(f"reopen after crash failed: {exc!r}")
        return result, ledger, None


def _lose_unsynced(db: Database, hole: bool) -> bool:
    """The unkind page cache, for packs: cut the active pack back to what
    an fsync covered -- or, with ``hole``, zero only the first unsynced
    frame, as if the later frames reached the disk and it did not;
    returns whether a frame followed the hole."""
    pack, synced = db.store.blobs.unsynced_tail()
    if pack is None or os.path.getsize(pack) == synced:
        return False
    if not hole:
        os.truncate(pack, synced)
        return False
    with open(pack, "r+b") as fh:
        fh.seek(synced)
        length = int.from_bytes(fh.read(4), "little")
        fh.seek(synced)
        fh.write(bytes(8 + length))
    return os.path.getsize(pack) > synced + 8 + length


def run_scenario(scenario: Scenario, path: Path) -> Result:
    """Run ``scenario``'s workload in ``path`` under its fault, recover,
    and verify: every database (shards included) passes the strict check
    with nothing left in doubt, then the matrix's verifier and probe; a
    clean close and reopen must then leave ``export()`` as it was."""
    family = _FAMILIES["twopc" if scenario.rewrite else scenario.matrix]
    result, ledger, db = _crash_and_reopen(path, scenario, family)
    if db is None:
        return result
    try:
        if family.must_fire and not result.counts["fired"]:
            result.problems.append(
                f"failpoint {scenario.failpoint} hit {scenario.hit} never fired"
            )
            return result
        for idx, each in enumerate(getattr(db, "shards", [db])):
            label = "db" if each is db else f"shard {idx}"
            check = check_database(each, strict=True)
            result.problems.extend(f"{label} strict check: {p}" for p in check.problems)
            if each.in_doubt_txns():
                result.problems.append(
                    f"{label} still has in-doubt transactions "
                    f"{sorted(each.in_doubt_txns())} after resolution"
                )
            if each.coordinator_decisions():
                result.problems.append(
                    f"{label} still holds coordinator decisions after resolution"
                )
        family.verify(db, ledger, scenario, result.problems)
        family.probe(db, ledger, scenario, result.problems)
        before = db.export()
        db.close()
        db = family.reopen(path)
        if db.export() != before:
            result.problems.append("a clean close and reopen changed the export")
    except Exception as exc:  # noqa: BLE001 - a verifier that dies is a finding
        result.problems.append(f"verification raised {exc!r}")
    finally:
        db.close()
    return result


# -- the 2PC matrix (cross-shard transactions; repro.shard) -------------------


@persistent(name="crashmatrix.Account")
class Account(PersistentObject):
    """Transfer-workload record: the invariant is the sum of balances.  With
    a blob-sized ``memo`` every balance write displaces a stored body."""

    def __init__(self, tag: int = 0, bal: int = 0, memo: str = "") -> None:
        self.tag = tag
        self.bal = bal
        self.memo = memo


_TWOPC_NSHARDS = 3
_TWOPC_ACCOUNTS = 6
_TWOPC_BALANCE = 100
_TWOPC_ROUNDS = 6

#: The windows where the in-flight transfer's verdict is already durable:
#: a crash there MUST resolve to commit (both account writes survive).
#: ``wal.flush.pre_fsync`` is only ever armed on the combined PREPARE +
#: verdict flush, whose bytes this harness's kind page cache keeps.  The
#: garbage pacer's windows (the GC matrix's rewrite rows) run after their
#: commit, in phase two after its verdict -- a pack's retirement included,
#: by the pacer's own pack sync.  Everywhere else presumed abort MUST
#: roll both back -- ``pre_forget`` included: it fires in the sweep at the
#: top of a *later* commit, whose own transfer has logged nothing durable.
_DECIDED_WINDOWS = frozenset(
    {"shard.2pc.post_decision", "shard.2pc.post_ack", "wal.flush.pre_fsync"}
    | {"gc.tombstone.pre", "gc.tombstone.post", "gc.unlink.pre", "gc.unlink.post"}
    | {"gc.index.pre", "gc.index.post", "blobs.compact.copied", "blobs.compact.retired"}
)

#: Crash hit ordinals per 2PC failpoint.  The workload is single-threaded
#: (one remote writer is caller-runs) so ordinals are deterministic.  A
#: transfer fires pre_prepare once, post_prepare twice (the remote writer,
#: forced; then the coordinator shard, its PREPARE only appended),
#: pre_decision and post_decision once, post_ack twice (both COMMITs only
#: appended) -- the chosen hits land on the first transfer and again deep
#: in the run.  pre_forget fires once per released verdict, at the top of
#: the first commit that finds both participants' logs forced past their
#: COMMITs: the fourth transfer releases the first's, the sixth the third's.
_TWOPC_CRASH_HITS: dict[str, tuple[int, ...]] = {
    "shard.2pc.pre_prepare": (1, 3),
    "shard.2pc.post_prepare": (1, 2, 5),
    "shard.2pc.pre_decision": (1, 3),
    "shard.2pc.post_decision": (1, 3),
    "shard.2pc.post_ack": (1, 5),  # hit 2 is scenario (a) below
    "shard.2pc.pre_forget": (1, 3),
}

#: ``wal.flush.write`` / ``wal.flush.pre_fsync`` ordinals of the first
#: transfer's combined PREPARE + ``COORD_COMMIT`` flush (the first flush
#: after ``pre_decision`` hit 1; recount with ``injector.hit_count`` after
#: a crash there if set-up's flushes change -- the resolution counts the
#: scenarios expect fail loudly on a stale ordinal).
_COMBINED_FLUSH_WRITE, _COMBINED_FLUSH_FSYNC = 8, 14


def enumerate_twopc_scenarios(smoke: bool = False) -> list[Scenario]:
    """Crash scenarios covering every cross-shard 2PC window.

    The double-crash entries interrupt restart *resolution* itself: the
    first one mid-rollback of a presumed-abort participant, the second
    mid-flush of a resolution commit -- recovery must then succeed on a
    clean third open (undo of compensation records self-cancels, commit
    resolution is an idempotent re-append).
    """
    scenarios: list[Scenario] = []
    for failpoint, hits in _TWOPC_CRASH_HITS.items():
        assert probe.POINTS[failpoint] == probe.CRASH, failpoint
        for hit in hits:
            scenarios.append(Scenario(failpoint, "crash", hit=hit))
    scenarios.append(
        Scenario(
            "shard.2pc.post_prepare", "crash", hit=2,
            recovery_failpoint="heap.replay_insert",
        )
    )
    scenarios.append(
        Scenario(
            "shard.2pc.post_decision", "crash", hit=1,
            recovery_failpoint="wal.flush.pre_fsync",
        )
    )
    # The windows the unforced COMMIT opens.  (a) Verdict durable, both
    # COMMITs still buffered: both participants come back in doubt and
    # commit.  (b) The coordinator shard's log is forced past its COMMIT,
    # the other participant's never: the verdict must still be held and
    # resolves that participant commit.  (c) Both logs forced: the next
    # commit's sweep releases the verdict, the crash leaves nothing in doubt.
    held = Scenario(
        "shard.2pc.pre_prepare", "crash", hit=2, lazy_flush=(0,),
        expect_released=0, expect_resolution=(1, 0),
    )
    scenarios += [
        Scenario("shard.2pc.post_ack", "crash", hit=2, expect_resolution=(2, 0)),
        held,
        Scenario(
            "shard.2pc.pre_prepare", "crash", hit=2, lazy_flush=(0, 1),
            expect_released=1, expect_resolution=(0, 0),
        ),
    ]
    # (d) The combined flush itself.  A write that never reaches the file
    # (the unkind page cache's crash-before-fsync) leaves only the remote
    # PREPARE; one torn inside the COORD_COMMIT frame leaves both PREPAREs
    # and no verdict -- presumed abort on every shard either way.  Under
    # this harness's kind cache a crash at pre_fsync finds the whole write
    # in the file: a verdict, so commit on every shard.
    scenarios += [
        Scenario("wal.flush.write", "torn_write", hit=_COMBINED_FLUSH_WRITE,
                 keep=0, expect_resolution=(0, 1)),
        Scenario("wal.flush.write", "torn_write", hit=_COMBINED_FLUSH_WRITE,
                 keep=-3, expect_resolution=(0, 2)),
        Scenario("wal.flush.pre_fsync", "crash", hit=_COMBINED_FLUSH_FSYNC,
                 expect_resolution=(2, 0)),
    ]
    if smoke:
        # Keep one resolution-interrupting double crash in the smoke set,
        # and the held-verdict lazy-COMMIT window.
        double = next(s for s in scenarios if s.recovery_failpoint is not None)
        scenarios = _smoke(scenarios, lambda s: s.failpoint, double, held)
    return [replace(s, matrix="twopc") for s in scenarios]


class _TransferLedger:
    """Single-threaded transfer workload state: the accounts as a model,
    and, while a transfer is in flight, a clone with it applied."""

    def __init__(self) -> None:
        self.accounts: list[Ref] = []
        self.committed = ModelStore()
        self.pending: ModelStore | None = None
        #: COORD_END records in the shards' WAL files as the workload left them.
        self.coord_ends = 0
        #: Verdicts released before the crash: ``shard.2pc.pre_forget`` is
        #: visited once per verdict, right before its COORD_END.
        self.forgets = 0


def _twopc_steps(scenario: Scenario) -> list[tuple[int, int]]:
    """``(src, dst)`` account pairs to transfer between.  Account ``i`` is
    on shard ``i % 3``: adjacent accounts make a cross-shard transfer,
    ``s`` and ``s + 3`` a single-shard one (whose fast-path commit forces
    shard ``s``'s log).  The lazy-COMMIT steps are one cross-shard transfer
    on shards (0, 1), those forcing commits, and a second one to crash in.
    The rewrite rows run nine: three pacer runs per shard."""
    if scenario.lazy_flush is None:
        return [
            (j % _TWOPC_ACCOUNTS, (j + 1) % _TWOPC_ACCOUNTS)
            for j in range(9 if scenario.rewrite else _TWOPC_ROUNDS)
        ]
    flushes = [(s, s + _TWOPC_NSHARDS) for s in scenario.lazy_flush]
    return [(0, 1), *flushes, (1, 2)]


def _run_twopc_workload(path: Path, scenario: Scenario) -> _TransferLedger:
    """Transfers until done or the armed fault fires."""
    ledger = _TransferLedger()
    with _until_the_fault() as opened:
        nshards = scenario.rewrite or _TWOPC_NSHARDS
        router = opened(ShardedDatabase(path, nshards=nshards, pool_size=8))
        memo = 600 if scenario.rewrite else 0  # chars: a blob-sized body, or none
        for i in range(_TWOPC_ACCOUNTS):
            account = Account(i, _TWOPC_BALANCE, _gc_text(i, memo))
            ledger.accounts.append(router.pnew(account))
            ledger.committed.pnew(ledger.accounts[i].oid, account)
        router.checkpoint()
        for j, (src, dst) in enumerate(_twopc_steps(scenario)):
            pending = ledger.committed.clone()
            for i, amount in ((src, -(j + 1)), (dst, j + 1)):
                old = pending.read(ledger.accounts[i].oid)
                pending.write(ledger.accounts[i].oid, Account(i, old.bal + amount, old.memo))
            ledger.pending = pending
            with router.transaction():
                for i in (src, dst):
                    ledger.accounts[i].bal = pending.read(ledger.accounts[i].oid).bal
            ledger.committed, ledger.pending = pending, None
    ledger.forgets = probe.attached().hit_count("shard.2pc.pre_forget")
    for wal_path in sorted(path.glob("shard-*/wal.log")):
        log = LogManager(wal_path)
        ledger.coord_ends += sum(1 for r in log.records() if r.kind == COORD_END)
        log.close(flush=False)
    return ledger


def _verify_twopc(
    router: ShardedDatabase,
    ledger: _TransferLedger,
    scenario: Scenario,
    problems: list[str],
) -> None:
    """The verdicts released and resolved as the row expects, and the
    whole router exports the model the row admits."""
    if scenario.expect_released not in (None, ledger.forgets) or (
        ledger.coord_ends > ledger.forgets
    ):
        problems.append(
            f"{ledger.forgets} verdict(s) released before the crash "
            f"({ledger.coord_ends} COORD_END durable), expected "
            f"{scenario.expect_released}"
        )
    resolution = router.last_resolution
    resolved = (len(resolution.committed), len(resolution.aborted))
    if scenario.expect_resolution not in (None, resolved):
        problems.append(
            f"resolution (committed, aborted) {resolved}, expected "
            f"{scenario.expect_resolution}"
        )
    # Both writes of an in-flight transfer survive or neither -- and
    # which of the two is not a matter of luck: a durable verdict (crash
    # at/after post_decision) must commit, no verdict must abort.
    want, what = ledger.committed, "recovered accounts are not the committed ones"
    if ledger.pending is not None and scenario.failpoint in _DECIDED_WINDOWS:
        want, what = ledger.pending, "decided transfer lost"
    elif ledger.pending is not None:
        what = "undecided transfer not presumed-aborted"
    real, want = _recovered(router), want.export()
    if real != want:
        problems.append(f"{what}: {_difference(real, want)}")


def _twopc_usability_probe(
    router: ShardedDatabase,
    ledger: _TransferLedger,
    scenario: Scenario,
    problems: list[str],
) -> None:
    """The recovered sharded database must accept new cross-shard work
    (and, on the rewrite rows, repair must have converged: one reclaim
    leaves no candidate)."""
    try:
        a, b = (router.deref(ref.oid) for ref in ledger.accounts[:2])
        before = (a.bal, b.bal)
        with router.transaction():
            a.bal = before[0] - 1
            b.bal = before[1] + 1
        with router.transaction():
            a.bal = before[0]
            b.bal = before[1]
        if (a.bal, b.bal) != before:
            problems.append("post-recovery transfer probe read back wrong")
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        problems.append(f"post-recovery 2PC probe failed: {exc!r}")
    if scenario.rewrite:
        router.reclaim_blobs()
        stats = router.stats()
        if stats["blobs.count"] != stats["blobs.live"]:
            problems.append("zero-ref blobs outlive a reclaim after repair")


# -- the GC matrix (retention pruning + blob reclaim; repro.core.gc) ----------

_GC_OBJECTS = 4
_GC_VERSIONS = 10
_GC_KEEP = 3

#: Deltas on: the mixed histories below need delta-stored children to
#: re-base.  Every open of a GC-matrix database uses this policy.
_GC_POLICY = StoragePolicy(kind="delta")

#: Reclaim-protocol windows armed while the *workload* runs a GC.  The
#: ``gc.repair.*`` windows are deliberately absent: repair fires at every
#: database open, so arming them here would crash the workload's own setup
#: open -- they are exercised as ``recovery_failpoint`` double-crash
#: scenarios instead.
_GC_CRASH_HITS: dict[str, tuple[int, ...]] = {
    # Once per reclaim batch: hit=2 lands on the second tombstone, i.e.
    # after one batch already dropped its index entries.
    "gc.tombstone.pre": (1, 2),
    "gc.tombstone.post": (1, 2),
    # Once per key: hit=1 is the batch's first unlink (tombstone durable,
    # nothing unlinked yet); hit=5 is deep inside a batch, files and
    # index entries interleaved across the crash point.
    "gc.unlink.pre": (1, 5),
    "gc.unlink.post": (1, 5),
    "gc.index.pre": (1, 5),
    "gc.index.post": (1, 5),
    # Once per compacted pack: its survivors are copied forward (both
    # packs hold every key; an open keeps the copy and the original is
    # dead space) / the emptied pack is deleted, after the reclaim step's
    # pack sync.
    "blobs.compact.copied": (1, 3),
    "blobs.compact.retired": (1,),
}

#: ``blobs.append`` ordinals inside the collector: 45 appends build the
#: history, so 46 is the first re-base put of the first prune transaction
#: (a torn frame under an unacknowledged commit); 16 re-base puts later
#: the commit pacer runs, and 62 is the first frame its compaction copies
#: forward.  Recount after changing the history: run
#: :func:`_run_gc_workload` under an empty plan and read
#: ``injector.hit_count("blobs.append")``.
_GC_TORN_APPENDS = ((46, 11), (62, -3))

#: The rewrite workload's third transfer commit, as ``wal.flush.pre_write``
#: ordinal: the first two transfers' payloads are acknowledged and no pack
#: fsync has covered them.  Recount if its set-up flushes change.
_PAYLOAD_FLUSH = 11


def enumerate_gc_scenarios(smoke: bool = False) -> list[Scenario]:
    """Crash scenarios covering every blob-reclaim protocol window.

    The double-crash entries interrupt the *repair* of an interrupted
    reclaim: the first before any repair action ran, the second after
    repair finished but before its WAL truncate could persist -- a clean
    third open must repair again (repair is idempotent) and converge.
    """
    assert all(probe.POINTS[name] != probe.YIELD for name in _GC_CRASH_HITS)
    # Each window under the collector, and under the commit-path pacer on
    # one shard (the same ordinals mean the same there: see above).
    scenarios = [
        Scenario(failpoint, "crash", hit=hit, rewrite=rewrite)
        for rewrite in (0, 1)
        for failpoint, hits in _GC_CRASH_HITS.items()
        for hit in hits
    ]
    scenarios += [
        Scenario("blobs.append", "torn_write", hit=hit, keep=keep)
        for hit, keep in _GC_TORN_APPENDS
    ]
    scenarios += [
        Scenario("gc.unlink.post", "crash", hit=3, recovery_failpoint="gc.repair.pre"),
        Scenario("gc.index.pre", "crash", hit=3, recovery_failpoint="gc.repair.post"),
        # The pacer in a 2PC participant's phase-two commit.
        Scenario("gc.unlink.post", "crash", hit=1, rewrite=2),
        # Acknowledged payloads in the unsynced pack tail: a zeroed frame
        # in front of valid ones, where the open scan stops; then recovery
        # dying while it puts the lost payloads back.
        Scenario("wal.flush.pre_write", "crash", hit=_PAYLOAD_FLUSH, rewrite=1, hole=True),
        Scenario(
            "wal.flush.pre_write", "crash", hit=_PAYLOAD_FLUSH, rewrite=1,
            recovery_failpoint="blobs.append",
        ),
    ]
    if smoke:
        double = next(s for s in scenarios if s.recovery_failpoint is not None)
        paced = next(s for s in scenarios if s.rewrite == 2)
        scenarios = _smoke(scenarios, lambda s: s.failpoint, double, paced)
    return [replace(s, matrix="gc") for s in scenarios]


@dataclass
class _GcLedger:
    """What the GC workload promised before the fault fired.

    ``committed`` models the history it built; ``tags`` holds, per object,
    the serials tagged outside the keep-last window.  Retention
    (:meth:`policy`) dooms the serials :meth:`ModelStore.doomed` selects --
    the collector may have deleted any of them, or the crash may have left
    them behind -- and a converged collector leaves :meth:`retained`.
    """

    committed: ModelStore = field(default_factory=ModelStore)
    tags: dict = field(default_factory=dict)
    #: The mixed-history objects: oid -> True when pruning re-bases
    #: serial 3 from the blob store to an inline record, False for the
    #: opposite direction.
    mixed: dict = field(default_factory=dict)
    #: True once every write (and the retention/tag setup) is committed;
    #: the armed faults fire inside run_gc, after this point.
    setup_done: bool = False

    def policy(self, key) -> dict:
        """The retention policy the workload set, as the model's keywords."""
        return {"keep_last_n": _GC_KEEP, "tags": self.tags.get(key, ())}

    def retained(self) -> ModelStore:
        model = self.committed.clone()
        for key in model.keys():
            model.apply_retention(key, **self.policy(key))
        return model


def _gc_text(seed: int, chars: int = 600) -> str:
    """Deterministic text no delta shrinks: a version holding it is stored
    as a full copy, and at this size that copy lives in the blob store."""
    return random.Random(seed).randbytes(chars // 2).hex()


def _gc_mixed_history(seed: int, to_inline: bool) -> list[str]:
    """Five versions whose serial 3 changes sides when serial 2 is pruned.

    Serial 2 replaces half of serial 1, a delta too large to inline.
    Serial 3 is a one-character edit of serial 2 (an inline delta that
    becomes a large one when re-based onto serial 1) or, with
    ``to_inline``, of serial 1 (the reverse).  Serials 4 and 5 are small
    edits, so the object's records sit on both sides throughout.
    """
    base = _gc_text(seed, 1200)
    forked = base[:600] + _gc_text(seed + 1)
    near = base if to_inline else forked
    return [base, forked] + ["#" * n + near[n:] for n in (1, 2, 3)]


def _build_gc_history(path: Path, ledger: _GcLedger) -> Database:
    """Commit doomed history under a retention policy; returns the open db.

    Every bulk version is a distinct blob, so pruning feeds each reclaim
    window; two mixed objects keep serial 1 by tag, so pruning serial 2
    re-bases a delta child across the inline threshold, once each way.
    """
    from repro.core.gc import RetentionPolicy

    db = Database(path, pool_size=8, policy=_GC_POLICY)
    #: (texts by serial, the serial tagged outside the keep-last window or
    #: None, the mixed direction or None).  keep_tagged must shield the
    #: tagged serial from the sweep.
    histories: list[tuple[list[str], int | None, bool | None]] = [
        (
            [_gc_text(i * 1000 + serial) for serial in range(1, _GC_VERSIONS + 1)],
            2 if i == 0 else None,
            None,
        )
        for i in range(_GC_OBJECTS)
    ]
    histories += [
        (_gc_mixed_history(7000, to_inline=False), 1, False),
        (_gc_mixed_history(8000, to_inline=True), 1, True),
    ]
    db.set_retention(Blob, RetentionPolicy(keep_last_n=_GC_KEEP))
    model = ledger.committed
    for i, (texts, tagged, to_inline) in enumerate(histories):
        ref = db.pnew(Blob(tag=i, text=texts[0]))
        model.pnew(ref.oid, Blob(tag=i, text=texts[0]))
        for text in texts[1:]:
            db.newversion(ref)
            ref.text = text
            model.newversion(ref.oid)
            model.write(ref.oid, Blob(tag=i, text=text))
        if tagged is not None:
            db.tag_version(db.versions(ref)[tagged - 1], "pinned")
            ledger.tags[ref.oid] = (tagged,)
        if to_inline is not None:
            ledger.mixed[ref.oid] = to_inline
    db.checkpoint()
    ledger.setup_done = True
    return db


def _run_gc_workload(path: Path, scenario: Scenario) -> _GcLedger:
    """Build doomed history, then collect it until the armed fault fires."""
    ledger = _GcLedger()
    with _until_the_fault() as opened:
        db = opened(_build_gc_history(path, ledger))
        # Small batches -> several tombstone/unlink/index rounds, so the
        # armed window is crossed with committed batches on either side.
        for _ in range(6):
            report = db.run_gc(batch_limit=5)
            if report.candidates_remaining == 0 and report.blobs_unlinked == 0:
                break
    return ledger


def _stored_inline(db: Database, vid: Vid) -> bool:
    """True when the version's heap record holds its payload, not a blob ref."""
    _kind, page_id, slot = db.store.graph(vid.oid).node(vid.serial).data
    record = db.catalog.ensure_heap("ode.versions").read(Rid(page_id, slot))
    return not blobs.is_ref(record)


def _verify_gc(
    db: Database, ledger: _GcLedger, scenario: Scenario, problems: list[str]
) -> None:
    """Retention safety: the recovered histories are the committed ones
    less some doomed versions, and the collector, run again, converges
    to exactly the retained model."""
    if not ledger.setup_done:
        problems.append("fault fired before the GC ran (setup crashed)")
        return
    real = _recovered(db)
    model = ledger.committed.clone()
    for key, (_, rows) in real.items():
        if model.exists(key):
            survivors = {row[0] for row in rows}
            for serial in ledger.committed.doomed(key, **ledger.policy(key)):
                if serial not in survivors:
                    model.vdelete(key, serial)
    if real != model.export():
        problems.append(
            f"recovered state is not the committed model less doomed "
            f"versions: {_difference(real, model.export())}"
        )
    _gc_convergence_probe(db, ledger, problems)


def _gc_convergence_probe(
    db: Database, ledger: _GcLedger, problems: list[str]
) -> None:
    """Post-recovery GC must finish the job: exact keep set, no debris."""
    try:
        for _ in range(4):
            report = db.run_gc(batch_limit=64)
            if report.candidates_remaining == 0:
                break
        else:
            problems.append(
                f"reclaim did not drain: {report.candidates_remaining} "
                f"candidate(s) remain after 4 passes"
            )
        real, want = _recovered(db), ledger.retained().export()
        if real != want:
            problems.append(
                f"post-recovery GC did not converge to the retained model: "
                f"{_difference(real, want)}"
            )
        for oid, to_inline in ledger.mixed.items():
            if _stored_inline(db, Vid(oid, 3)) != to_inline:
                problems.append(
                    f"oid {oid.value}: re-based serial 3 is not stored "
                    f"{'inline' if to_inline else 'in the blob store'}"
                )
        stats = db.stats()
        if stats["blobs.count"] != stats["blobs.live"]:
            problems.append(
                f"converged GC left {stats['blobs.count'] - stats['blobs.live']} "
                f"zero-ref index entries"
            )
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        problems.append(f"post-recovery GC probe failed: {exc!r}")


_FAMILIES = {
    "plain": _Family(
        _run_workload, Database, _verify, _usability_probe, must_fire=False
    ),
    "twopc": _Family(
        _run_twopc_workload, ShardedDatabase, _verify_twopc,
        _twopc_usability_probe, must_fire=True,
    ),
    "gc": _Family(
        _run_gc_workload, partial(Database, policy=_GC_POLICY), _verify_gc,
        _usability_probe, must_fire=True,
    ),
}

#: ``--scenario`` name -> the matrix's rows.
MATRICES = {
    "plain": enumerate_scenarios,
    "twopc": enumerate_twopc_scenarios,
    "gc": enumerate_gc_scenarios,
}


def scenarios(names=("plain",), smoke: bool = False) -> harness.Scenarios:
    """Every row of the named matrices (their smoke subsets with ``smoke``)."""
    return {
        row.name: partial(run_scenario, row)
        for name in names
        for row in MATRICES[name](smoke=smoke)
    }


def fired_failpoints(report: harness.Report) -> set[str]:
    """Failpoints whose armed fault actually triggered in some row."""
    return {r.name.split(":")[0] for r in report.results if r.counts["fired"]}


def main(argv: list[str] | None = None) -> int:
    return harness.main(
        argv, prog="crashmatrix", description="fault-injection crash matrix",
        names=list(MATRICES), default=["plain"],
        select=lambda names, args: scenarios(names, args.smoke),
        facts=lambda report: [
            f"{len(fired_failpoints(report))} distinct failpoints fired"
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
