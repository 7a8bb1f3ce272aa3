"""The shard router: one database surface over N shard databases.

A :class:`ShardedDatabase` partitions the oid space across ``nshards``
embedded :class:`~repro.core.database.Database` instances, each with its
own WAL, buffer pool, catalog and snapshot registry, living in
``path/shard-NN``.  Shard ``i`` allocates only oids congruent to ``i``
modulo ``nshards`` (the store's ``oid_stride``/``oid_residue``), so
:class:`~repro.shard.placement.ModuloPlacement` derives any oid's home
shard arithmetically.

The router exposes the same facade as a single database -- ``pnew``,
generic references, versions, clusters, queries, sessions, transactions,
the wire server -- and routes each operation to the owning shard:

* **Single-shard transactions ride the embedded fast path.**  A global
  transaction creates shard-local transactions lazily, one per shard it
  touches; a transaction that touched one shard commits with that
  shard's ordinary one-fsync commit -- no PREPARE, no decision record,
  no cross-shard coordination of any kind (asserted by the E14 bench's
  no-2PC-tax gate).
* **Cross-shard transactions run two-phase commit** -- see
  :mod:`repro.shard.coordinator` -- and restart resolution
  (:mod:`repro.shard.recovery`) finishes whatever a crash interrupted.
* **An object id resolves on its home shard, ``oid % nshards``, and
  nowhere else.**  That is checked once, when a shard is opened: one
  whose object table holds an id of another residue class (a directory
  copied in from elsewhere) is refused, naming the id.

Caveat worth knowing: per-shard deadlock detectors cannot see a wait
cycle that spans shards.  Cross-shard deadlocks fall to the per-shard
lock *timeout* backstop, so keep cross-shard transactions short and
acquire shards in a consistent order where possible.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
from typing import Any, Callable, Iterator

from repro import probe
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef
from repro.core.query import Query, QueryTerminals
from repro.core.session import ClientSession, Session, SessionHost
from repro.core.surface import Target, VersionReads, oid_of, plain_id
from repro.core.vgraph import VersionGraph
from repro.errors import (
    SessionStateError,
    ShardUnavailableError,
    StorageError,
    TransactionStateError,
)
from repro.shard.coordinator import (
    ACTIVE,
    GlobalTransaction,
    HeldVerdict,
    settle_verdicts,
)
from repro.shard.executor import ShardExecutor
from repro.shard.placement import ModuloPlacement
from repro.shard.recovery import ResolutionReport, resolve_in_doubt
from repro.shard.snapshot import GlobalSnapshot, _CutLatch
from repro.storage import faults

_META_FILE = "shards.meta"
_DEFAULT_NSHARDS = 4

#: Shard health states (see :meth:`ShardedDatabase.shard_health`).
SHARD_UP = "up"
SHARD_DEGRADED = "degraded"  # read-only after persistent I/O failure
SHARD_DOWN = "down"          # detached: every touch fails fast

class ShardedDatabase(VersionReads, SessionHost):
    """N shard databases behind the single-database facade.

    Parameters
    ----------
    path:
        Directory for the shard directories and the ``shards.meta``
        layout record (created if missing).
    nshards:
        Number of shards.  Persisted on first open; reopening with a
        different explicit value is refused -- placement is arithmetic in
        ``nshards``, so changing it would scatter every existing oid's
        home.  ``None`` adopts the persisted value (or the default of
        {default} for a fresh directory).
    **db_kwargs:
        Forwarded to every shard's :class:`Database` (pool size, group
        commit window, lock timeout, ...).
    """.format(default=_DEFAULT_NSHARDS)

    def __init__(
        self,
        path: str | os.PathLike[str],
        nshards: int | None = None,
        **db_kwargs: Any,
    ) -> None:
        self._path = os.fspath(path)
        os.makedirs(self._path, exist_ok=True)
        meta_path = os.path.join(self._path, _META_FILE)
        if os.path.exists(meta_path):
            with open(meta_path, "r", encoding="utf-8") as fh:
                persisted = int(json.load(fh)["nshards"])
            if nshards is not None and nshards != persisted:
                raise ValueError(
                    f"database at {self._path!r} has {persisted} shards; "
                    f"refusing to open with nshards={nshards} (placement is "
                    "modulo nshards, so resharding would orphan every oid)"
                )
            nshards = persisted
        else:
            if nshards is None:
                nshards = _DEFAULT_NSHARDS
            if nshards < 1:
                raise ValueError("nshards must be >= 1")
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump({"nshards": nshards}, fh)
        self.nshards = nshards
        self.placement = ModuloPlacement(nshards)
        self._db_kwargs = dict(db_kwargs)
        self.shards: list[Database] = [self._open_shard(i) for i in range(nshards)]
        # Failure domains: each shard is independently up, degraded
        # (read-only) or down (detached).  ``_shard_gen`` counts
        # reattachments so cached shard sessions bound to a dead
        # Database object are recreated against the replacement.
        self._shard_down: list[bool] = [False] * nshards
        self._shard_gen: list[int] = [0] * nshards
        self._health_counters: dict[str, int] = {
            "kills": 0,
            "reattaches": 0,
            "failfast": 0,
            "skipped_fanouts": 0,
        }
        #: Protocol counters, surfaced as ``shard.2pc.*`` in :meth:`stats`.
        self._twopc_counters: dict[str, int] = {
            "commits_single": 0,
            "commits_cross": 0,
            "prepares": 0,
            "decisions": 0,
            "aborts": 0,
            "forgets": 0,
            "lazy_commits": 0,
            "readonly_participants": 0,
            "resolved_commit": 0,
            "resolved_abort": 0,
        }
        # Global transaction ids: a fresh 48-bit incarnation per open plus
        # an in-memory sequence, so gtxids never collide across restarts
        # (the sequence alone would -- it restarts from 1).
        self._incarnation = random.getrandbits(48)
        self._gtxid_seq = itertools.count(1)
        self._gtxn_ids = itertools.count(1)
        self._rr = itertools.count()
        # Parallel cross-shard execution: one bounded pool shared by
        # every fan-out and the 2PC prepares, plus the cut latch that
        # keeps global snapshots consistent against phase-2 publication.
        self._exec = ShardExecutor(nshards, name=f"shard-exec-{id(self):x}")
        self._cut_latch = _CutLatch()
        self._cut_seq = itertools.count(1)
        self._snap_counters: dict[str, int] = {"cuts": 0, "degraded_cuts": 0}
        self._init_session_host()
        self._closed = False
        # Durable verdicts whose COORD_END waits for their participants'
        # lazily written COMMITs: gtxid -> HeldVerdict, oldest first (see
        # repro.shard.coordinator.release_verdicts).
        self._held: dict[tuple, HeldVerdict] = {}
        self._held_mutex = threading.Lock()
        #: What restart resolution found and did at this open.
        self.last_resolution: ResolutionReport = resolve_in_doubt(self)
        self._twopc_counters["resolved_commit"] = len(self.last_resolution.committed)
        self._twopc_counters["resolved_abort"] = len(self.last_resolution.aborted)

    # -- lifecycle -----------------------------------------------------------

    @property
    def path(self) -> str:
        """The sharded database's root directory."""
        return self._path

    def _open_shard(self, idx: int) -> Database:
        """Open shard ``idx``, refusing one that holds another's object.

        Routing is ``oid % nshards`` with no second look, so an object
        off its home shard would be unreachable, and invisible until
        something asked for it: the open says so instead.
        """
        db = Database(
            os.path.join(self._path, f"shard-{idx:02d}"),
            oid_stride=self.nshards,
            oid_residue=idx,
            **self._db_kwargs,
        )
        foreign = db.store.misplaced_oids()
        if foreign:
            db.close()
            raise StorageError(
                f"shard {idx} at {db.path!r} holds {len(foreign)} object(s) "
                f"of another shard, first {foreign[0]!r} (home: shard "
                f"{self.placement.shard_of(foreign[0])}); refusing to open"
            )
        return db

    def checkpoint(self) -> None:
        """Checkpoint every *up* shard (quiescent only, like the embedded
        call); down shards are skipped.  Held verdicts are settled first
        so the coordinator shards' WALs truncate too."""
        settle_verdicts(self)
        for idx, db in enumerate(self.shards):
            if not self._shard_down[idx]:
                db.checkpoint()

    def close(self) -> None:
        """Close every session, then every shard.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        with self._session_mutex:
            sessions = list(self._sessions)
        for sess in sessions:
            sess.close()
        self._exec.close()
        settle_verdicts(self)
        for idx, db in enumerate(self.shards):
            if not self._shard_down[idx]:
                db.close()

    # -- failure domains -----------------------------------------------------

    def shard_health(self) -> dict[int, str]:
        """Per-shard health: ``up``, ``degraded`` (read-only) or ``down``.

        Each shard is its own failure domain: a down shard fails its
        operations fast with :class:`ShardUnavailableError` while the
        healthy shards keep serving; a degraded shard (read-only after
        persistent I/O failure) still answers reads.
        """
        out: dict[int, str] = {}
        for idx, db in enumerate(self.shards):
            if self._shard_down[idx]:
                out[idx] = SHARD_DOWN
            elif db.degraded:
                out[idx] = SHARD_DEGRADED
            else:
                out[idx] = SHARD_UP
        return out

    def _up_shards(self) -> list[int]:
        return [i for i in range(self.nshards) if not self._shard_down[i]]

    def _check_up(self, idx: int) -> None:
        if self._shard_down[idx]:
            self._health_counters["failfast"] += 1
            raise ShardUnavailableError(
                f"shard {idx} is down; the operation targets its failure "
                "domain (retry after reattach_shard, or route elsewhere)",
                shard=idx,
            )

    def kill_shard(self, idx: int) -> None:
        """Abruptly take shard ``idx`` down -- the chaos harness's axe.

        No checkpoint, no flush: the shard's WAL keeps whatever it
        held, exactly like a machine losing power.  The shard is marked
        down *first* so routing fails fast before the files close under
        a concurrent operation.  Idempotent.
        """
        if self._shard_down[idx]:
            return
        self._shard_down[idx] = True
        self._health_counters["kills"] += 1
        db = self.shards[idx]
        # Abrupt stop: mark closed and drop the file handles without
        # flushing -- recovery at reattach must replay from the WAL.
        # Each handle closes *under its own I/O lock* so an operation
        # that passed _check_up before the flag flipped either finishes
        # its in-flight write first (bytes that beat the power cut) or
        # faults cleanly afterwards -- never mid-syscall on a handle
        # closed underneath it (which could tear state beyond the
        # intended power-loss shape).  _on_shard translates the
        # post-close faults to the retryable ShardUnavailableError.
        db._closed = True
        log = db._log
        with log._cond:
            while log._flushing:
                log._cond.wait()
            try:
                log._file.close()
            except Exception:
                pass
        disk = db._disk
        with disk._lock:
            try:
                disk._file.close()
            except Exception:
                pass

    def reattach_shard(self, idx: int) -> ResolutionReport:
        """Bring a down shard back online.

        Reopens the shard database (its own WAL recovery replays the
        abrupt shutdown), bumps the shard's generation so cached shard
        sessions bound to the dead instance are recreated, then runs
        in-doubt resolution over every up shard (a participant elsewhere
        may have been waiting for a verdict in this shard's WAL).  Returns
        the resolution report.
        """
        if not self._shard_down[idx]:
            raise ValueError(f"shard {idx} is not down")
        self.shards[idx] = self._open_shard(idx)
        self._shard_gen[idx] += 1
        self._shard_down[idx] = False
        self._health_counters["reattaches"] += 1
        report = resolve_in_doubt(self)
        self._twopc_counters["resolved_commit"] += len(report.committed)
        self._twopc_counters["resolved_abort"] += len(report.aborted)
        return report

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- sessions ------------------------------------------------------------

    def _new_session(self, name: str | None) -> "RouterSession":
        return RouterSession(self, name)

    # -- routing -------------------------------------------------------------

    def _on_shard(
        self,
        idx: int,
        fn: Callable[[Database], Any],
        sess: "RouterSession | None" = None,
    ) -> Any:
        """Run ``fn(shard)`` with the shard session activated.

        If the router session has an active global transaction, the shard
        joins it here: a local transaction is begun lazily on first touch
        (inheriting the global lock timeout and snapshot-read mode), so
        shards the transaction never touches pay nothing.

        ``sess`` carries the caller's router session onto executor
        worker threads explicitly -- the thread-local lookup would hand
        a worker its own implicit session, detaching the fan-out from
        the client's transaction and pins.  Distinct shards mean
        distinct shard-local sessions, so parallel workers activating
        them never collide on the one-thread-at-a-time rule.

        An operation that passed the up-check but raced ``kill_shard``
        surfaces whatever low-level error the dying shard produced (a
        closed-file ValueError, a DiskError, ...); those are translated
        to the documented retryable :class:`ShardUnavailableError` here,
        so callers see the same failure shape as a fail-fast rejection.
        """
        self._check_up(idx)
        if sess is None:
            sess = self._current_session()
        gtxn = sess.txn
        if gtxn is not None and gtxn.state != ACTIVE:
            sess.txn = None
            gtxn = None
        shard_sess = sess.shard_session(idx)
        if (
            gtxn is not None
            and idx in gtxn.locals
            and gtxn.local_gens.get(idx) != self._shard_gen[idx]
        ):
            # The shard died and was reattached while this transaction
            # held a local half there: recovery rolled that half back,
            # and the stale local was aborted with its old session.
            # Running the op anyway would escape the transaction
            # entirely (an autocommit write on the replacement shard).
            self._health_counters["failfast"] += 1
            raise ShardUnavailableError(
                f"shard {idx} failed while this transaction was using "
                "it; its shard-local work was rolled back by recovery "
                "(retry the whole transaction)",
                shard=idx,
            )
        try:
            with shard_sess.activate():
                if gtxn is not None and idx not in gtxn.locals:
                    local = self.shards[idx].begin(
                        lock_timeout=gtxn.lock_timeout,
                        snapshot_reads=gtxn.read_only,
                    )
                    gtxn.locals[idx] = local
                    gtxn.local_gens[idx] = self._shard_gen[idx]
                    cut = gtxn.cut
                    if (
                        gtxn.read_only
                        and cut is not None
                        and idx in cut.parts
                        and cut.gens.get(idx) == self._shard_gen[idx]
                    ):
                        # A snapshot-read global transaction reads at its
                        # begin-time *cut*, not at per-shard first-touch
                        # epochs: swap the lazily-pinned local snapshot
                        # for the cut's part so every shard serves the
                        # same consistent point.  (Snapshot.close is
                        # idempotent; shared ownership with the cut is
                        # fine.)
                        if local.snapshot is not None:
                            local.snapshot.close()
                        local.snapshot = cut.parts[idx]
                return fn(self.shards[idx])
        except ShardUnavailableError:
            raise
        except Exception as exc:
            if not self._shard_down[idx]:
                raise
            self._health_counters["failfast"] += 1
            raise ShardUnavailableError(
                f"shard {idx} went down mid-operation (retry after "
                "reattach_shard, or route elsewhere)",
                shard=idx,
            ) from exc

    def _route(self, oid: Oid, fn: Callable[[Database], Any]) -> Any:
        """Run ``fn(shard)`` on the shard that owns ``oid``.

        The single-object combinator: the owner is the oid's home, by
        arithmetic (see :meth:`_open_shard`); join the caller's global
        transaction there (:meth:`_on_shard`), run.  An oid nobody holds
        routes there too, so the error surfaces with the ordinary
        not-found message, and a home shard that is down fails fast with
        :class:`ShardUnavailableError` -- its failure domain.
        """
        return self._on_shard(self.placement.shard_of(oid), fn)

    # -- transactions --------------------------------------------------------

    def begin(
        self,
        *,
        lock_timeout: float | None = None,
        snapshot_reads: bool = False,
    ) -> GlobalTransaction:
        """Start a global transaction on the calling session.

        Shard-local transactions are created lazily as shards are
        touched; commit runs the single-shard fast path or cross-shard
        2PC depending on how many shards that turned out to be.
        """
        sess = self._current_session()
        if self.current_transaction() is not None:
            raise TransactionStateError(
                "a transaction is already active on this session"
            )
        gtxn = GlobalTransaction(
            self, sess, next(self._gtxn_ids), read_only=snapshot_reads
        )
        gtxn.lock_timeout = lock_timeout
        if snapshot_reads:
            # One consistent cut for the whole transaction: every shard
            # it lazily touches adopts this cut's part as its snapshot
            # (see _on_shard), so a cross-shard snapshot-read transaction
            # observes a single global point rather than N first-touch
            # epochs.
            gtxn.cut = self.snapshot()
        sess.txn = gtxn
        return gtxn

    def _next_gtxid(self) -> tuple:
        return (self._incarnation, next(self._gtxid_seq))

    def _finish_global(self, gtxn: GlobalTransaction) -> None:
        """Detach a finished global transaction from its session (idempotent)."""
        cut = gtxn.cut
        if cut is not None:
            gtxn.cut = None
            cut.close()
        sess = gtxn.session
        if sess.txn is gtxn:
            sess.txn = None

    # -- kernel operations ----------------------------------------------------

    def pnew(self, obj: Any) -> Ref:
        """Create a persistent object on the next *up* shard (round-robin).

        Placement is a free choice here (no oid exists yet), so creation
        stays available while any shard is up -- down shards are simply
        skipped in the rotation.
        """
        idx = next(self._rr) % self.nshards
        for _ in range(self.nshards - 1):
            if not self._shard_down[idx]:
                break
            idx = next(self._rr) % self.nshards
        ref = self._on_shard(idx, lambda db: db.pnew(obj))
        return Ref(self, ref.oid)

    def newversion(self, target: Target) -> VersionRef:
        """Create a derived version on the shard holding the target."""
        vref = self._route(
            oid_of(target), lambda db: db.newversion(plain_id(target))
        )
        return VersionRef(self, vref.vid)

    def pdelete(self, target: Target) -> None:
        """Delete an object (or one version) on its shard."""
        self._route(oid_of(target), lambda db: db.pdelete(plain_id(target)))

    # -- retention & garbage collection ---------------------------------------

    def set_retention(self, scope: Any, policy: Any | None) -> None:
        """Declare (or clear) a retention policy across the cluster.

        Type-scoped policies are broadcast to every up shard (each
        shard's catalog carries its own copy, so a shard GC needs no
        cross-shard coordination); object-scoped policies route to the
        owning shard alone.
        """
        if isinstance(scope, (type, str)):
            self._gather(lambda db: db.set_retention(scope, policy))
        else:
            oid = oid_of(scope)
            self._route(oid, lambda db: db.set_retention(oid, policy))

    def retention_policies(self) -> dict[str, Any]:
        """The union of every up shard's retention table."""
        merged: dict[str, Any] = {}
        for part in self._gather(lambda db: db.retention_policies()):
            merged.update(part)
        return merged

    def retention_for(self, target: Ref | Oid | type | str) -> Any | None:
        """The effective policy: routed for objects, any up shard for types."""
        if not isinstance(target, (type, str)):
            oid = oid_of(target)
            return self._route(oid, lambda db: db.retention_for(oid))
        # Type policies are broadcast identically to every shard.
        for policy in self._gather(lambda db: db.retention_for(target)):
            return policy
        raise ShardUnavailableError("no shard is up", shard=-1)

    def tag_version(self, target: VersionRef | Vid, tag: str) -> None:
        """Pin one version with a tag on its owning shard."""
        vid = plain_id(target)
        self._route(vid.oid, lambda db: db.tag_version(vid, tag))

    def untag_version(self, target: VersionRef | Vid) -> None:
        vid = plain_id(target)
        self._route(vid.oid, lambda db: db.untag_version(vid))

    def version_tags(self, target: Target) -> dict[int, str]:
        oid = oid_of(target)
        return self._route(oid, lambda db: db.version_tags(oid))

    def run_gc(
        self, batch_limit: int = 64, now: float | None = None, dry_run: bool = False
    ) -> Any:
        """Scatter one incremental GC pass across every up shard.

        Each shard collects independently (retention tables are
        shard-local); a shard holding in-doubt 2PC participants skips
        blob reclaim on its own (their verdict may undo displacements),
        so running GC during a partial outage is safe.  Reports are
        merged: every count is summed.
        """
        from repro.core.gc import GCReport

        parts = self._gather(lambda db: db.run_gc(batch_limit, now, dry_run))
        merged = GCReport(dry_run=dry_run)
        for name in vars(merged):
            if name != "dry_run":
                setattr(merged, name, sum(getattr(part, name) for part in parts))
        return merged

    def reclaim_blobs(
        self, limit: int | None = None, dry_run: bool = False
    ) -> tuple[int, int, int]:
        """Scatter a blob-reclaim batch; sums the per-shard outcomes."""
        parts = self._gather(lambda db: db.reclaim_blobs(limit, dry_run))
        return tuple(sum(p[i] for p in parts) for i in range(3))

    # -- store protocol (Ref/VersionRef bound to the router) -------------------

    def materialize(self, vid: Vid) -> Any:
        return self._route(vid.oid, lambda db: db.materialize(vid))

    def read_attr(self, vid: Vid, name: str) -> Any:
        return self._route(vid.oid, lambda db: db.read_attr(vid, name))

    def latest_vid(self, oid: Oid) -> Vid:
        return self._route(oid, lambda db: db.latest_vid(oid))

    def write_version(self, vid: Vid, obj: Any) -> None:
        self._route(vid.oid, lambda db: db.write_version(vid, obj))

    def write_version_if_changed(self, vid: Vid, obj: Any) -> bool:
        return self._route(
            vid.oid, lambda db: db.write_version_if_changed(vid, obj)
        )

    def object_exists(self, oid: Oid) -> bool:
        return self._route(oid, lambda db: db.object_exists(oid))

    def version_exists(self, vid: Vid) -> bool:
        return self._route(vid.oid, lambda db: db.version_exists(vid))

    def type_name(self, oid: Oid) -> str:
        return self._route(oid, lambda db: db.type_name(oid))

    def graph(self, target: Target) -> VersionGraph:
        """The object's version graph, as its owning shard reads it (the
        §4 traversals are built on this -- see
        :class:`~repro.core.surface.VersionReads`)."""
        oid = oid_of(target)
        return self._route(oid, lambda db: db.graph(oid))

    # -- clusters & queries ----------------------------------------------------

    def _fanout_shards(self) -> list[int]:
        """The shards a fan-out consults: the up ones.

        Degraded-mode semantics, documented: while any shard is down,
        fan-outs (clusters, queries, counts) return *partial* results
        over the healthy shards rather than failing the whole surface --
        each skip is counted in ``shard.health.skipped_fanouts``.
        """
        up = self._up_shards()
        skipped = self.nshards - len(up)
        if skipped:
            self._health_counters["skipped_fanouts"] += skipped
        return up

    def _scatter(
        self, indices: list[int], fn: Callable[[int], Any]
    ) -> list[Any]:
        """Run ``fn(idx)`` for every shard index; scatter-gather when enabled.

        The parallel path preserves the serial loop's semantics exactly:
        results come back in ``indices`` order, and on failure one
        deterministic exception surfaces -- a :class:`SimulatedCrash`
        first (the harness must see the "process death" it injected, and
        concurrent siblings may have failed *because* of it), otherwise
        the lowest failing shard's error.  Per-shard fencing (dying
        shards -> :class:`ShardUnavailableError`) already happened
        inside the scattered ``fn`` via :meth:`_on_shard`.

        Falls back to the serial loop for single-shard fan-outs and when
        the calling thread is itself a pool worker (a nested scatter
        waiting on workers it occupies would deadlock the bounded pool).
        """
        if len(indices) <= 1 or self._exec.in_worker():
            return [fn(idx) for idx in indices]
        outcomes = self._exec.run_all(indices, fn)
        errors = [
            (idx, err) for idx, (_, err) in zip(indices, outcomes) if err is not None
        ]
        if errors:
            for _, err in errors:
                if isinstance(err, faults.SimulatedCrash):
                    raise err
            raise min(errors)[1]
        return [result for result, _ in outcomes]

    def _gather(self, fn: Callable[[Database], Any]) -> list[Any]:
        """Run ``fn(shard)`` on every up shard; results in shard order.

        The fan-out combinator: scattered across the executor, each
        call inside :meth:`_on_shard` carrying the *caller's* router
        session, so every shard joins the caller's transaction and pins.
        """
        sess = self._current_session()
        return self._scatter(
            self._fanout_shards(),
            lambda idx: self._on_shard(idx, fn, sess=sess),
        )

    def cluster(self, type_or_name: type | str) -> list[Ref]:
        """The type's cluster, scattered across every up shard."""
        return [
            Ref(self, ref.oid)
            for refs in self._gather(lambda db: db.cluster(type_or_name))
            for ref in refs
        ]

    def cluster_names(self) -> list[str]:
        names: set[str] = set()
        for part in self._gather(lambda db: db.cluster_names()):
            names.update(part)
        return sorted(names)

    def object_count(self) -> int:
        return sum(self._gather(lambda db: db.object_count()))

    def export(self) -> list[tuple]:
        """Every up shard's :meth:`Database.export`, merged in oid order."""
        return sorted(
            (row for part in self._gather(lambda db: db.export()) for row in part),
            key=lambda row: row[0],
        )

    def query(self, type_or_name: type | str) -> "_FanoutQuery":
        """A ``suchthat`` query fanned out across every up shard's cluster.

        Each shard contributes its own :class:`~repro.core.query.Query`
        (bound to the local transaction's snapshot under a snapshot-read
        transaction); results are rebound to the router.  Materialization
        scatters across the shard executor (see :class:`_FanoutQuery`).
        """
        sess = self._current_session()
        indices = self._fanout_shards()
        parts = self._scatter(
            indices,
            lambda idx: self._on_shard(
                idx, lambda db: db.query(type_or_name), sess=sess
            ),
        )
        return _FanoutQuery(
            parts, rebind=self, executor=self._exec,
            origin=(self, sess, indices),
        )

    # -- the global snapshot epoch ---------------------------------------------

    def snapshot(self) -> GlobalSnapshot:
        """Pin one **consistent cut** across every up shard.

        Taken under the exclusive side of the cut latch, so the cut can
        never land inside a cross-shard commit's phase-2 publication
        window: a transaction that committed across shards is entirely
        visible or entirely invisible (the E16 regression gate).  Down
        shards contribute no part -- reads targeting them fail fast, and
        the cut is counted degraded.

        Use as a context manager (or ``close()``) to unpin::

            with router.snapshot() as cut:
                total = sum(acct.balance for acct in cut.cluster(Account))
        """
        with self._cut_latch.cutting():
            parts: dict[int, Any] = {}
            gens: dict[int, int] = {}
            try:
                for idx in self._up_shards():
                    try:
                        parts[idx] = self.shards[idx].snapshot()
                    except Exception:
                        if not self._shard_down[idx]:
                            raise
                        # Raced kill_shard: degrade exactly like a
                        # fan-out that found the shard already down.
                        self._health_counters["skipped_fanouts"] += 1
                        continue
                    gens[idx] = self._shard_gen[idx]
            except BaseException:
                for snap in parts.values():
                    snap.close()
                raise
            seq = next(self._cut_seq)
            self._snap_counters["cuts"] += 1
            if len(parts) < self.nshards:
                self._snap_counters["degraded_cuts"] += 1
        return GlobalSnapshot(self, parts, seq, gens)

    # -- stats ----------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Aggregated counters: shard-summed kernel stats plus ``shard.*``.

        Numeric keys from each shard's :meth:`Database.stats` are summed
        (``wal.flushes`` is the fleet total, and so on) except the
        process-wide ``faults.*``; the router adds
        ``shard.count`` and the 2PC protocol counters under
        ``shard.2pc.*``.
        """
        stats: dict[str, Any] = {"shard.count": self.nshards}
        for key, value in self._twopc_counters.items():
            stats[f"shard.2pc.{key}"] = value
        stats["shard.2pc.decisions_held"] = len(self._held)
        health = self.shard_health()
        stats["shard.health.up"] = sum(
            1 for state in health.values() if state == SHARD_UP
        )
        stats["shard.health.degraded"] = sum(
            1 for state in health.values() if state == SHARD_DEGRADED
        )
        stats["shard.health.down"] = sum(
            1 for state in health.values() if state == SHARD_DOWN
        )
        for key, value in self._health_counters.items():
            stats[f"shard.health.{key}"] = value
        stats.update(self._exec.stats())
        for key, value in self._snap_counters.items():
            stats[f"shard.snap.{key}"] = value

        def shard_stats(idx: int) -> dict[str, Any]:
            try:
                return self.shards[idx].stats()
            except Exception:
                if self._shard_down[idx]:
                    # Raced kill_shard mid-aggregation: degrade like any
                    # fan-out, the healthy shards' numbers still land.
                    self._health_counters["skipped_fanouts"] += 1
                    return {}
                raise

        agg: dict[str, Any] = {}
        for per_shard in self._scatter(self._up_shards(), shard_stats):
            for key, value in per_shard.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                agg[key] = agg.get(key, 0) + value
        stats.update(agg)
        # The fault counters are process-wide: read once, not once per shard.
        stats.update(probe.stats())
        # The router's own run_transaction bookkeeping, on top of the
        # shards' (a shard counts only retry loops run directly on it).
        for key, value in self._resilience.as_dict().items():
            stats[key] = stats.get(key, 0) + value
        stats["degraded"] = any(
            self.shards[idx].degraded for idx in self._up_shards()
        )
        stats["sessions.open"] = self.session_count
        for source in list(self._stats_sources):
            stats.update(source())
        return stats

    def __repr__(self) -> str:
        return f"ShardedDatabase({self._path!r}, nshards={self.nshards})"


class RouterSession(ClientSession):
    """One client's state against the router: global txn, pins, context.

    The router's :class:`~repro.core.session.ClientSession` (the wire
    server drives it and :class:`~repro.core.session.Session` through the
    same calls); it owns one shard-local session per shard, created
    lazily.  The global transaction lives here; its shard-local
    transactions live in the shard sessions.
    """

    def __init__(self, router: ShardedDatabase, name: str | None = None) -> None:
        super().__init__(router, name, "router-session")
        self.router = router
        self._shard_sessions: dict[int, Session] = {}
        self._shard_gens: dict[int, int] = {}
        self._reader: "ShardedReader | None" = None
        #: The session's pinned global cut (one consistent point across
        #: shards) -- the read context behind :attr:`snapshot`/:meth:`reader`.
        self._cut: GlobalSnapshot | None = None

    def shard_session(self, idx: int) -> Session:
        """The lazily-created local session on shard ``idx``.

        Generation-checked: a cached session bound to a shard instance
        that has since been killed and reattached is discarded and
        recreated against the replacement database -- otherwise every
        session from before the failure would keep talking to the dead
        object forever.
        """
        gen = self.router._shard_gen[idx]
        sess = self._shard_sessions.get(idx)
        if sess is not None and self._shard_gens.get(idx) != gen:
            try:
                sess.close()
            except Exception:
                pass  # bound to the dead instance; nothing to save
            sess = None
        if sess is None:
            # Constructed directly (not via Database.session) so shard
            # databases do not track router-owned sessions; the router
            # session closes them itself.
            sess = Session(self.router.shards[idx], name=f"{self.name}@shard{idx}")
            self._shard_sessions[idx] = sess
            self._shard_gens[idx] = gen
        return sess

    # -- the snapshot read context ---------------------------------------------

    @property
    def snapshot(self) -> "ShardedReader | None":
        """The pinned default read context, or None."""
        return self._reader

    def pin(self) -> "ShardedReader":
        """Pin one **global cut** as the session's read context.

        The cut (one consistent point across every up shard -- see
        :meth:`ShardedDatabase.snapshot`) replaces the previous one, and
        its per-shard parts are adopted as the shard sessions' pins, so
        single-shard reads routed through ``_on_shard`` resolve against
        the same point as the fanned-out reader.  Down shards have no
        part; their reads fail fast."""
        if self.closed:
            raise SessionStateError(f"{self.name} is closed")
        self._retake_cut()
        if self._reader is None:
            self._reader = ShardedReader(self)
        return self._reader

    def _retake_cut(self) -> GlobalSnapshot:
        cut = self.router.snapshot()
        for idx, part in cut.parts.items():
            try:
                self.shard_session(idx).adopt_pin(part)
            except Exception:
                pass  # a shard racing kill_shard; its reads fail fast anyway
        old, self._cut = self._cut, cut
        if old is not None:
            old.close()
        return cut

    def _cut_stale(self, cut: GlobalSnapshot) -> bool:
        """One-integer-compare-per-shard staleness probe (no locks)."""
        router = self.router
        for idx in range(router.nshards):
            if router._shard_down[idx]:
                if cut.parts.get(idx) is not None:
                    # The cut predates the kill: its part reads a closed
                    # store.  Retake so the down shard drops out of the
                    # cut and its reads fail fast instead.
                    return True
                continue
            part = cut.parts.get(idx)
            if part is None or cut.gens.get(idx) != router._shard_gen[idx]:
                return True  # shard (re)joined since the cut
            if part.epoch < router.shards[idx].store.snapshots.epoch:
                return True  # publication advanced
        return False

    def current_cut(self) -> GlobalSnapshot:
        """The session's cut, retaken when any shard published since."""
        cut = self._cut
        if cut is not None and not self._cut_stale(cut):
            return cut
        return self._retake_cut()

    def unpin(self) -> None:
        """Drop the cut and every shard pin; reads see live state again."""
        cut, self._cut = self._cut, None
        if cut is not None:
            cut.close()
        for sess in self._shard_sessions.values():
            try:
                sess.unpin()
            except Exception:
                pass  # a shard that died while pinned has nothing to drop
        self._reader = None

    def reader(self) -> "ShardedReader":
        """The fanned-out snapshot reader (cut-level staleness handled by
        :meth:`current_cut`'s per-shard epoch probe)."""
        if self._reader is None:
            self._reader = ShardedReader(self)
        return self._reader

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Tear down: settle the global transaction, close shard sessions.

        An undecided global transaction aborts everywhere (presumed
        abort: nothing durable promised anything).  A *decided* one --
        verdict already journaled -- must NOT be aborted by teardown; its
        local transactions are detached instead, leaving completion to
        restart resolution, which is the only actor allowed to finish a
        decided transaction the client abandoned.
        """
        if self.closed:
            return
        self.closed = True
        if probe.crashed():
            # Simulated process death: the dead process touches nothing.
            return
        gtxn = self.txn
        if gtxn is not None and gtxn.state == ACTIVE:
            if gtxn.decided:
                for idx, txn in gtxn.locals.items():
                    sess = self._shard_sessions.get(idx)
                    if sess is not None and sess.txn is txn:
                        sess.txn = None
            else:
                try:
                    gtxn.abort()
                except Exception:
                    pass  # teardown must not raise
        self.txn = None
        cut, self._cut = self._cut, None
        if cut is not None:
            cut.close()
        for sess in self._shard_sessions.values():
            try:
                sess.close()
            except Exception:
                pass  # a session on a killed shard tears down best-effort
        self.router._forget_session(self)


class ShardedReader(VersionReads):
    """The router session's lock-free read surface (the wire inline lane).

    Every call delegates to the session's **global cut** (one consistent
    point across shards, see :class:`~repro.shard.snapshot.GlobalSnapshot`)
    via :meth:`RouterSession.current_cut`, which retakes the cut when any
    shard's publication epoch advanced -- so freshness stays one integer
    compare per shard, reads never take locks or the storage mutex, and a
    cross-shard commit can never appear half-visible to a fan-out.
    """

    def __init__(self, session: RouterSession) -> None:
        self._session = session
        self._router = session.router

    def _cut(self) -> GlobalSnapshot:
        return self._session.current_cut()

    @property
    def epoch(self) -> tuple[int, ...]:
        """Per-shard publication epochs of the cut (-1 for a down shard)."""
        return self._cut().epoch

    def latest_vid(self, oid: Oid) -> Vid:
        return self._cut().latest_vid(oid)

    def read_latest_attr(self, oid: Oid, name: str) -> Any:
        return self._cut().read_latest_attr(oid, name)

    def materialize(self, vid: Vid) -> Any:
        return self._cut().materialize(vid)

    def read_attr(self, vid: Vid, name: str) -> Any:
        return self._cut().read_attr(vid, name)

    def object_exists(self, oid: Oid) -> bool:
        return self._cut().object_exists(oid)

    def version_exists(self, vid: Vid) -> bool:
        return self._cut().version_exists(vid)

    def type_name(self, oid: Oid) -> str:
        return self._cut().type_name(oid)

    def graph(self, target: Target) -> VersionGraph:
        return self._cut().graph(target)

    def write_version(self, vid: Vid, obj: Any) -> None:
        self._cut().write_version(vid, obj)  # raises: the cut is read-only

    def write_version_if_changed(self, vid: Vid, obj: Any) -> bool:
        return self._cut().write_version_if_changed(vid, obj)

    def cluster(self, type_or_name: type | str) -> list[Ref]:
        return self._cut().cluster(type_or_name)

    def query(self, type_or_name: type | str) -> "_FanoutQuery":
        """A fanned-out query over the session's cut.

        Results stay bound to the cut's shard snapshots (not rebound to
        the router): the inline lane only ships oids, and snapshot-bound
        references keep predicate evaluation on the lock-free path.
        """
        return self._cut().query(type_or_name)


class _FanoutQuery(QueryTerminals):
    """One query surface over per-shard :class:`~repro.core.query.Query` parts.

    Supports the chaining, iteration and terminals of
    :class:`~repro.core.query.Query`; ``suchthat`` and ``over_versions``
    are pushed down to every part, so filtering runs where the data
    lives (and, under a pinned snapshot, lock-free).  Given an executor,
    iteration **materializes the parts in parallel** -- the scatter half
    of scatter-gather -- then yields in shard order, so result order
    matches the serial loop exactly.

    A live router fan-out additionally carries its ``origin`` -- the
    router, the router session the query was issued under, and the shard
    index behind each part -- so materialization runs *inside*
    :meth:`ShardedDatabase._on_shard` with the shard session activated.
    That keeps per-shard reads under the caller's transaction (strict
    2PL shared locks, like the embedded facade) or pin, instead of
    escaping to autocommit on a bare worker thread; the lock waits a
    part incurs behind writers then overlap across shards.  Cut-bound
    fan-outs (a :class:`~repro.shard.snapshot.GlobalSnapshot`) have no
    session and no locks to take, so they skip the wrapper.
    """

    def __init__(
        self,
        parts: list[Query],
        rebind: ShardedDatabase | None = None,
        executor: "ShardExecutor | None" = None,
        origin: "tuple[ShardedDatabase, RouterSession, list[int]] | None" = None,
    ):
        self._parts = parts
        self._rebind = rebind
        self._executor = executor
        self._origin = origin

    def _pushed_down(self, op: Callable[[Query], Query]) -> "_FanoutQuery":
        return _FanoutQuery(
            [op(part) for part in self._parts],
            self._rebind,
            self._executor,
            self._origin,
        )

    def suchthat(self, predicate: Callable[[Any], bool]) -> "_FanoutQuery":
        return self._pushed_down(lambda part: part.suchthat(predicate))

    def over_versions(self) -> "_FanoutQuery":
        return self._pushed_down(lambda part: part.over_versions())

    def _materialize_part(self, pos: int) -> list[Any]:
        """List one part's matches, via ``_on_shard`` when this fan-out
        has a live origin (shard session activated on this thread)."""
        part = self._parts[pos]
        if self._origin is None:
            return list(part)
        router, sess, indices = self._origin
        return router._on_shard(indices[pos], lambda _db: list(part), sess=sess)

    def _materialized(self) -> list[list[Any]]:
        """Each part's matches, scattered across the executor when one
        is attached (and the caller is not itself a pool worker)."""
        exe = self._executor
        positions = range(len(self._parts))
        if exe is None or len(self._parts) <= 1 or exe.in_worker():
            return [self._materialize_part(pos) for pos in positions]
        outcomes = exe.run_all(list(positions), self._materialize_part)
        for _, err in outcomes:
            if err is not None:
                raise err
        return [result for result, _ in outcomes]

    def __iter__(self) -> Iterator[Ref | VersionRef]:
        for refs in self._materialized():
            for ref in refs:
                if self._rebind is not None:
                    yield self._rebind.deref(plain_id(ref))
                else:
                    yield ref
