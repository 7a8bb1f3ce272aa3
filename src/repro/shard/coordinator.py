"""Two-phase commit across shards.

The router funnels a :class:`GlobalTransaction`'s commit here.  With one
writer shard (or none) the global commit *is* the local commit -- the
single-shard fast path pays no protocol cost.  With *n* >= 2 writers it
is presumed abort with R*'s two economies, forcing the log *n* times:

1. **Remote prepares.**  Every writer but the coordinator shard -- the
   lowest writer index, so the choice is deterministic and needs no WAL
   traffic to record -- appends a ``PREPARE`` record (carrying the global
   txid, the coordinator shard, and the full participant list) and its
   log is forced.  A participant that crashes after this point is
   *in-doubt*: its effects are durable and recovery keeps them until the
   verdict is known.  Any prepare failure aborts the whole global
   transaction -- legal, because no verdict exists yet (presumed abort).

2. **Prepare and decide, one flush.**  The coordinator shard is its own
   last agent: it appends its ``PREPARE``, then ``COORD_COMMIT(gtxid,
   participants)``, to the same log and flushes once -- the commit point
   of the whole global transaction.  Log order is the argument: a torn
   tail leaves "prepared, no verdict" (presumed abort everywhere) or
   "prepared + verdict" (commit everywhere), never a verdict for an
   unprepared local branch.

3. **Commit, unforced.**  Each participant commits on the calling
   thread: its ``COMMIT`` record is appended, *not forced* (see
   :meth:`Transaction.commit`), locks are released, the result
   published.  The durable verdict owns the participant's fate: a crash
   before that log's next flush brings it back in-doubt and restart
   resolution commits it again.  A prepared participant never aborts
   itself on failure here.

4. **Hold, then forget.**  The verdict is *held* (:class:`HeldVerdict`)
   until every participant's WAL has been flushed -- by anyone: a later
   commit, a checkpoint -- past its ``COMMIT`` record; only then is
   ``COORD_END`` appended and the coordinator shard's WAL free to
   truncate (:func:`release_verdicts`, run at the top of every commit,
   and after forcing the awaited logs at checkpoint, close and restart
   resolution).  Losing the unforced ``COORD_END`` costs nothing but an
   idempotent re-delivery of the verdict on the next restart.

Recovery resolves the other direction: an in-doubt participant commits
iff its gtxid has a durable ``COORD_COMMIT`` somewhere, otherwise
*presumed abort* -- no decision record means step 2 never completed, so
no participant can have committed.

Failpoints (``shard.2pc.*``) bracket every window so the crash matrix
can kill the process at each protocol step and assert recovery holds:
``post_prepare`` fires per participant (the remote ones forced, then the
coordinator shard's, only appended), ``post_ack`` per appended
``COMMIT``, ``pre_forget`` per released verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro import probe
from repro.errors import ShardUnavailableError, TransactionStateError
from repro.storage import faults, serialization

if TYPE_CHECKING:
    from repro.core.transactions import Transaction
    from repro.shard.router import RouterSession, ShardedDatabase

#: GlobalTransaction states (mirrors the local transaction's spellings so
#: the wire server's state checks work unchanged).
ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class GlobalTransaction:
    """One transaction spanning any number of shards.

    Local per-shard transactions are created lazily by the router the
    first time an operation touches a shard, so a transaction that only
    ever touches one shard is indistinguishable -- in cost and in WAL
    traffic -- from an embedded single-database transaction.
    """

    def __init__(
        self,
        router: "ShardedDatabase",
        session: "RouterSession",
        txid: int,
        read_only: bool = False,
    ) -> None:
        self.router = router
        self.session = session
        #: Router-level id (returned over the wire); local per-shard txids
        #: are independent counters and never leave their shard.
        self.txid = txid
        self.state = ACTIVE
        #: Snapshot-read global transaction: every shard-local transaction
        #: is opened with ``snapshot_reads=True`` (lock-free pinned reads,
        #: mutations raise ReadOnlySnapshotError).
        self.read_only = read_only
        #: Kept None so the wire server's inline-lane probe (which checks
        #: ``session.txn``) and state checks treat this like a local txn.
        self.snapshot = None
        #: The consistent cut a snapshot-read transaction was begun
        #: against (:class:`~repro.shard.snapshot.GlobalSnapshot`); every
        #: lazily-begun local adopts its shard's part, so cross-shard
        #: snapshot reads observe one global point.  None for ordinary
        #: transactions; closed by the router when the transaction ends.
        self.cut = None
        #: shard index -> live local Transaction.
        self.locals: dict[int, "Transaction"] = {}
        #: shard index -> the shard generation its local was begun
        #: against.  A mismatch with the router's current generation
        #: means the shard died (and was reattached) mid-transaction:
        #: the local half was rolled back by recovery, so the global
        #: transaction can only fail -- never silently continue.
        self.local_gens: dict[int, int] = {}
        #: True once the commit verdict is durable in the coordinator
        #: shard's WAL: from then on the global transaction *will* commit
        #: and may no longer be aborted.
        self.decided = False
        self.gtxid: tuple | None = None
        #: Coordinator shard index, fixed when the gtxid is assigned.
        self.coordinator: int | None = None
        #: The router's :class:`HeldVerdict` for this transaction, from
        #: just before its decision record is logged.
        self.held: HeldVerdict | None = None
        #: Per-shard lock deadline override, inherited by every local
        #: transaction the router begins on this transaction's behalf.
        self.lock_timeout: float | None = None

    @property
    def participants(self) -> tuple[int, ...]:
        """Sorted indices of the shards this transaction touched."""
        return tuple(sorted(self.locals))

    def commit(self) -> None:
        """Commit everywhere: fast path for <= 1 shard, else 2PC.

        A participant shard dying mid-commit surfaces as the retryable
        :class:`~repro.errors.ShardUnavailableError`, not whatever
        low-level error its closed handles produced.
        """
        if self.state != ACTIVE:
            raise TransactionStateError(
                f"global transaction {self.txid} is {self.state}, not active"
            )
        lost = [
            i
            for i in self.participants
            if self.local_gens.get(i) != self.router._shard_gen[i]
        ]
        if lost and not self.decided:
            # A participant shard died (and was reattached) while this
            # transaction was open: recovery rolled its half back, so
            # the whole must not commit.  Release the surviving shards'
            # locks, then surface the retryable error.
            try:
                abort_global(self.router, self)
            except Exception:
                pass  # best-effort; the unavailability is what matters
            self.router._health_counters["failfast"] += 1
            raise ShardUnavailableError(
                f"shard {lost[0]} failed while global transaction "
                f"{self.txid} was open; its shard-local work was rolled "
                "back by recovery (retry the whole transaction)",
                shard=lost[0],
            )
        try:
            commit_global(self.router, self)
        except Exception as exc:
            wrapped = self._dead_shard_error(exc, "commit")
            if wrapped is None:
                raise
            raise wrapped from exc

    def abort(self) -> None:
        """Abort every participant.  Refused once the verdict is durable."""
        if self.state != ACTIVE:
            raise TransactionStateError(
                f"global transaction {self.txid} is {self.state}, not active"
            )
        if self.decided:
            raise TransactionStateError(
                f"global transaction {self.txid} is decided committed; "
                "restart recovery will complete it"
            )
        try:
            abort_global(self.router, self)
        except Exception as exc:
            wrapped = self._dead_shard_error(exc, "abort")
            if wrapped is None:
                raise
            raise wrapped from exc

    def _dead_shard_error(self, exc: BaseException, verb: str):
        """Map an error raised while a participant shard is down to the
        documented retryable error, mirroring the router's ``_on_shard``
        fence.  Returns None when no participant died (genuine errors --
        conflicts, validation -- pass through untouched)."""
        if isinstance(exc, ShardUnavailableError):
            return None
        down = [
            i
            for i in self.participants
            if self.router._shard_down[i]
            or self.local_gens.get(i) != self.router._shard_gen[i]
        ]
        if not down:
            return None
        self.router._health_counters["failfast"] += 1
        return ShardUnavailableError(
            f"shard {down[0]} went down during {verb} of global "
            f"transaction {self.txid} (retry after reattach_shard)",
            shard=down[0],
        )

    def __repr__(self) -> str:
        return (
            f"GlobalTransaction(txid={self.txid}, state={self.state}, "
            f"shards={list(self.participants)})"
        )


def prepare_meta(
    gtxid: tuple, coordinator: int, participants: tuple[int, ...]
) -> bytes:
    """The PREPARE record payload (decoded again by WAL recovery)."""
    return serialization.encode((gtxid, coordinator, tuple(participants)))


class HeldVerdict(NamedTuple):
    """A durable verdict whose ``COORD_END`` waits on its participants.

    Kept in the router's ``_held`` (gtxid -> verdict, oldest first, under
    ``_held_mutex``) from just before the decision record is logged until
    :func:`release_verdicts` finds every mark covered.
    """

    gtxid: tuple
    coordinator: int
    #: participant shard -> (shard generation its local transaction ran
    #: under, log sequence of its ``COMMIT`` -- None until appended).
    marks: dict[int, tuple[int, int | None]]


def commit_global(router: "ShardedDatabase", gtxn: GlobalTransaction) -> None:
    """Run the global commit protocol for ``gtxn``.

    Safe to re-invoke: a commit that failed *after* the decision record
    became durable leaves the transaction active with ``decided=True``
    (:meth:`Transaction.commit` keeps a prepared participant alive on
    failure), and a retry must only re-deliver the verdict -- re-entering
    phase one would find participants already prepared and, worse, the
    presumed-abort handler would roll back a transaction whose COMMIT
    verdict is already on disk.
    """
    counters = router._twopc_counters
    # Earlier verdicts whose participants' logs have been forced since (by
    # anyone's flush) go here, fast path included: this is what bounds how
    # long a verdict pins its coordinator shard's WAL.
    release_verdicts(router)
    try:
        if gtxn.decided:
            # A durable verdict exists from an earlier attempt that failed
            # in phase two: never re-enter phase one, just finish the job.
            _deliver_verdict(router, gtxn)
            return

        # Read-only participant optimization (presumed abort's classic
        # companion): a participant that logged nothing has no durable
        # state at stake, so it commits -- releasing its read locks --
        # at what would have been its prepare, votes no further, and is
        # excluded from phase two.  The transaction serializes at the
        # moment its last reader released.  A retry after a failed
        # attempt skips the ones already released.
        writers = [i for i in gtxn.participants if gtxn.locals[i].op_count > 0]
        readers = [
            i
            for i in gtxn.participants
            if gtxn.locals[i].op_count == 0 and gtxn.locals[i].state == ACTIVE
        ]
        for idx in readers:
            with gtxn.session.shard_session(idx).activate():
                gtxn.locals[idx].commit()
        counters["readonly_participants"] += len(readers)

        if len(writers) <= 1:
            # Single-shard fast path: the local commit *is* the global
            # commit; no PREPARE, no decision record, no extra fsync.
            for idx in writers:
                with gtxn.session.shard_session(idx).activate():
                    gtxn.locals[idx].commit()
            counters["commits_single"] += 1
            gtxn.state = COMMITTED
            return

        counters["commits_cross"] += 1
        parts = tuple(writers)
        coordinator = parts[0]
        gtxid = router._next_gtxid()
        gtxn.gtxid = gtxid
        gtxn.coordinator = coordinator
        meta = prepare_meta(gtxid, coordinator, parts)

        def _prepare_one(idx: int) -> None:
            # Distinct shards mean distinct shard-local sessions, so
            # concurrent workers never trip the one-thread rule.
            with gtxn.session.shard_session(idx).activate():
                gtxn.locals[idx].prepare(meta)
            if idx != coordinator:
                router.shards[idx].flush_log()  # a remote writer's one force
            probe.point("shard.2pc.post_prepare")

        try:
            probe.point("shard.2pc.pre_prepare")
            # Phase one: the other writers make their promise durable,
            # scattered across the shard executor (fsync releases the GIL,
            # so the cost is the slowest flush, not their sum).  The
            # barrier is the protocol's atomicity: the coordinator shard
            # prepares, and decides, strictly after *every* remote outcome.
            error = _scatter_prepares(router, parts, _prepare_one)
            if error is not None:
                raise error
            probe.point("shard.2pc.pre_decision")
            # Held from before the verdict shows in the shard's decision
            # table, so nothing ever finds it unaccounted for.
            gtxn.held = HeldVerdict(
                gtxid, coordinator, {i: (gtxn.local_gens[i], None) for i in parts}
            )
            with router._held_mutex:
                router._held[gtxid] = gtxn.held
            # The commit point: the verdict survives any crash after this.
            # The flush also forces the coordinator shard's own PREPARE,
            # appended just above, and rides that shard's ordinary
            # group-commit window like any other.
            router.shards[coordinator].log_coordinator_decision(gtxid, parts)
        except BaseException:
            # No durable verdict exists (the decision append either never
            # ran or failed before its fsync): presumed abort.  A
            # simulated crash skips the cleanup -- a dead process aborts
            # nothing, that is what restart resolution is for.
            if not probe.crashed():
                with router._held_mutex:
                    router._held.pop(gtxid, None)
                try:
                    abort_global(router, gtxn)
                except BaseException:
                    pass  # the prepare/decision error is the one to surface
            raise
        gtxn.decided = True
        counters["decisions"] += 1
        probe.point("shard.2pc.post_decision")

        _deliver_verdict(router, gtxn)
    finally:
        if gtxn.state != ACTIVE:
            router._finish_global(gtxn)


def _scatter_prepares(
    router: "ShardedDatabase", parts: tuple[int, ...], fn
) -> BaseException | None:
    """Prepare the remote writers in parallel, then -- only if all
    succeeded -- the coordinator shard ``parts[0]``, inline.

    Counts successes into ``shard.2pc.prepares`` on the coordinating
    thread (worker-side increments would race), and returns the one
    error to surface: a :class:`~repro.storage.faults.SimulatedCrash`
    first (the harness must see the process death it injected; siblings
    may have failed *because* the crash barrier dropped), otherwise the
    lowest failing shard's.  With one remote writer ``run_all`` is
    caller-runs: no executor task; on a pool worker it runs them all
    on the caller, in order.
    """
    errors = [err for _, err in router._exec.run_all(parts[1:], fn)]
    if errors.count(None) == len(errors):
        try:
            fn(parts[0])
            errors.append(None)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
    router._twopc_counters["prepares"] += errors.count(None)
    failed = [err for err in errors if err is not None]
    crashed = [err for err in failed if isinstance(err, faults.SimulatedCrash)]
    return next(iter(crashed or failed), None)


def _deliver_verdict(router: "ShardedDatabase", gtxn: GlobalTransaction) -> None:
    """Phase two: commit every still-prepared participant.

    On the calling thread -- a prepared participant's ``COMMIT`` is an
    append, there is no fsync to overlap -- and under the shared side of
    the router's cut latch: a global snapshot can never land between one
    participant's publication and another's, which is what makes the cut
    a consistent one.  Each ``COMMIT``'s log position is marked on the
    held verdict for :func:`release_verdicts` to wait on.

    Idempotent so a partially failed delivery can be re-run: locals that
    already committed are skipped, and a prepared participant whose
    commit fails stays active for the next attempt (see
    :meth:`Transaction.commit`).
    """
    assert gtxn.held is not None
    with router._cut_latch.publishing():
        for idx in gtxn.participants:
            txn = gtxn.locals[idx]
            if txn.state != ACTIVE:
                continue
            with gtxn.session.shard_session(idx).activate():
                txn.commit()
            gtxn.held.marks[idx] = (gtxn.local_gens[idx], txn.commit_seq)
            router._twopc_counters["lazy_commits"] += 1
            probe.point("shard.2pc.post_ack")
    gtxn.state = COMMITTED


def _lag(router: "ShardedDatabase", idx: int, mark: tuple[int, int | None]) -> int | None:
    """Records shard ``idx`` must still force to cover ``mark`` (<= 0:
    covered); None while it cannot be: the COMMIT is not appended yet, the
    shard is down, or the mark is of a generation of it that died."""
    gen, seq = mark
    if seq is None or router._shard_down[idx] or gen != router._shard_gen[idx]:
        return None
    return seq - router.shards[idx].log_flushed_seq


def release_verdicts(router: "ShardedDatabase") -> list[HeldVerdict]:
    """The one rule for forgetting a verdict; returns those released.

    ``COORD_END`` may be appended only after every participant's WAL has
    been flushed past its ``COMMIT`` record -- until then a crash brings
    that participant back in doubt and the verdict is all that says
    *commit*.  An uncoverable mark (restart resolution re-marks the stale
    ones, see :func:`repro.shard.recovery.resolve_in_doubt`) and a down
    coordinator shard leave the verdict held.
    """
    released: list[HeldVerdict] = []
    if not router._held:
        return released
    with router._held_mutex:
        for held in list(router._held.values()):
            lags = [_lag(router, idx, mark) for idx, mark in held.marks.items()]
            if router._shard_down[held.coordinator] or any(
                lag is None or lag > 0 for lag in lags
            ):
                continue
            probe.point("shard.2pc.pre_forget")
            router.shards[held.coordinator].forget_coordinator_decision(held.gtxid)
            del router._held[held.gtxid]
            router._twopc_counters["forgets"] += 1
            released.append(held)
    return released


def settle_verdicts(router: "ShardedDatabase") -> list[HeldVerdict]:
    """Force the logs held verdicts wait on, then release what that frees.

    For the quiescent points (checkpoint, close, restart resolution):
    every releasable verdict is gone before the shards checkpoint, so
    their WALs truncate.
    """
    with router._held_mutex:
        marks = [m for held in router._held.values() for m in held.marks.items()]
    for idx in sorted({idx for idx, mark in marks if (_lag(router, idx, mark) or 0) > 0}):
        if not router.shards[idx].degraded:
            router.shards[idx].flush_log()
    return release_verdicts(router)


def abort_global(router: "ShardedDatabase", gtxn: GlobalTransaction) -> None:
    """Abort every live participant; always detaches the transaction.

    Presumed abort makes rolling back *prepared* participants legal here
    -- but only while no commit verdict exists, so a decided transaction
    is refused outright.
    """
    if gtxn.decided:
        raise TransactionStateError(
            f"global transaction {gtxn.txid} is decided committed; "
            "re-run commit (or restart recovery) to complete it"
        )
    first_error: BaseException | None = None
    for idx, txn in sorted(gtxn.locals.items()):
        if txn.state != ACTIVE:
            continue
        try:
            with gtxn.session.shard_session(idx).activate():
                txn.abort(release_prepared=True)
        except BaseException as exc:  # noqa: BLE001 - keep aborting the rest
            if first_error is None:
                first_error = exc
    router._twopc_counters["aborts"] += 1
    gtxn.state = ABORTED
    router._finish_global(gtxn)
    if first_error is not None:
        raise first_error
