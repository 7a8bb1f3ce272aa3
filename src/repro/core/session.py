"""Sessions: per-client state, decoupled from the database kernel.

The embedded API binds client state to *threads*: ``db.begin()`` parks
the transaction in a thread-local, so "one client" and "one thread" are
the same thing.  A network service breaks that identification -- one
connection's requests may execute on many worker threads, and one worker
thread serves many connections -- so the client-side state has to become
an explicit object.  A :class:`Session` is that object:

* the client's **open transaction** (at most one; strict 2PL is per
  transaction, not per thread, so any thread may execute its operations
  while the session is activated there);
* the client's **pinned snapshot** -- the default read context.  While a
  session holds a pin, its reads outside a transaction resolve against
  the pinned publication epoch through the PR-4 lock-free path: no
  SHARED locks, no storage mutex.  :meth:`Session.reader` re-pins when
  the published epoch has advanced, so a read-mostly client tracks
  committed state without ever taking a lock;
* a free-form **context** dict for client-scoped defaults (the network
  layer stores per-connection settings here).

The :class:`~repro.core.database.Database` facade keeps its embedded
ergonomics by giving every thread an *implicit* session lazily -- the
pre-session behaviour is exactly "each thread uses its own implicit
session, never activated elsewhere".  Explicit sessions come from
:meth:`Database.session` and are activated around each request with
:meth:`Session.activate`, which temporarily binds the session to the
calling thread (and refuses to be active on two threads at once -- a
session is one client, and one client's requests are serialized).

Both engines host sessions the same way, so that part is written once
here too: :class:`ClientSession` is what a session *is* on either engine
(identity, context, one-thread-at-a-time activation), and
:class:`SessionHost` is what an engine does for its clients (create and
track sessions, find the calling thread's one, merge attached stats
sources, and retry a transaction body on transient conflicts).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro import probe
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    SessionStateError,
    TransactionAborted,
)

if TYPE_CHECKING:
    from repro.core.database import Database
    from repro.core.snapshot import Snapshot

_session_ids = itertools.count(1)


#: Errors ``run_transaction`` retries by default: transient concurrency
#: conflicts that a fresh attempt can win.  Everything else (invariant
#: violations, user exceptions, degraded mode) propagates immediately.
RETRYABLE_ERRORS: tuple[type[BaseException], ...] = (
    DeadlockError,
    LockTimeoutError,
    TransactionAborted,
)


class ClientSession:
    """One client against one engine: identity, context, activation.

    ``host`` is the engine (a :class:`SessionHost`) the session binds to
    the calling thread while activated.
    """

    def __init__(self, host: "SessionHost", name: str | None, kind: str) -> None:
        self.id = next(_session_ids)
        self.name = name or f"{kind}-{self.id}"
        self._host = host
        #: The session's open transaction, or None.  Set by the engine's
        #: ``begin`` while this session is active; cleared when the
        #: transaction finishes (on whatever thread that happens).
        self.txn: Any = None
        #: Client-scoped defaults (the network layer keeps per-connection
        #: settings -- peer address, default-version context -- here).
        self.context: dict[str, Any] = {}
        self.closed = False
        # Guards activation (and the subclass's pin state).
        self._mutex = threading.Lock()
        # The thread the session is currently activated on, or None.
        self._active_thread: int | None = None

    def activate(self) -> "_Activation":
        """Bind the session to the calling thread for one request.

        While active, the engine's ``begin()`` / ``current_transaction()``
        and every read resolve against *this* session instead of the
        thread's implicit one.  Activation nests on the same thread
        (re-entrant) but refuses to span two threads at once: a session
        is a single client, and its requests must be serialized by the
        caller.
        """
        return _Activation(self, True)

    def __enter__(self) -> Any:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("txn" if self.txn else "idle")
        return f"{type(self).__name__}({self.name!r}, {state})"


class Session(ClientSession):
    """One client's state against a database: txn, snapshot pin, context."""

    def __init__(self, db: "Database", name: str | None = None) -> None:
        super().__init__(db, name, "session")
        #: Pinned snapshot serving as the default read context, or None.
        self._snapshot: "Snapshot | None" = None

    # -- the snapshot read context -----------------------------------------

    @property
    def snapshot(self) -> "Snapshot | None":
        """The pinned default read context, or None."""
        return self._snapshot

    def pin(self) -> "Snapshot":
        """Pin (or refresh) the session's snapshot read context.

        Subsequent reads outside a transaction resolve against the pinned
        epoch, lock-free.  Returns the pinned snapshot.
        """
        if self.closed:
            raise SessionStateError(f"{self.name} is closed")
        snap = self._host.snapshot()
        with self._mutex:
            old, self._snapshot = self._snapshot, snap
        if old is not None:
            old.close()
        return snap

    def adopt_pin(self, snap: "Snapshot") -> "Snapshot":
        """Install an *externally pinned* snapshot as the read context.

        The sharded router uses this to make every shard session's pin a
        part of one global cut (see :mod:`repro.shard.snapshot`): the
        cut pins each shard under the cut latch, then hands the parts to
        the shard sessions so reads routed through them resolve against
        the same consistent point as the fanned-out reader.  Ownership
        is shared -- ``Snapshot.close`` is idempotent, so whichever of
        the cut or the session unpins last is harmless.
        """
        if self.closed:
            raise SessionStateError(f"{self.name} is closed")
        with self._mutex:
            old, self._snapshot = self._snapshot, snap
        if old is not None and old is not snap:
            old.close()
        return snap

    def unpin(self) -> None:
        """Drop the snapshot read context; reads see live state again."""
        with self._mutex:
            old, self._snapshot = self._snapshot, None
        if old is not None:
            old.close()

    def reader(self) -> "Snapshot":
        """The pinned snapshot, re-pinned if publication has advanced.

        The staleness probe is one integer compare against the store's
        epoch counter; the common no-new-commits case costs nothing and
        takes no locks.  Pins the session if it was not pinned yet.
        """
        snap = self._snapshot
        if snap is None or snap.epoch < self._host.store.snapshots.epoch:
            return self.pin()
        return snap

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Tear the session down: abort its open transaction, unpin.

        Idempotent, callable from any thread -- the network layer calls it
        when a connection drops, which may race the session's own worker.
        """
        if self.closed:
            return
        self.closed = True
        txn = self.txn
        if txn is not None and txn.state == "active":
            if getattr(txn, "prepared", False):
                # A prepared participant's fate belongs to its coordinator
                # (or restart recovery): detach it, never roll it back.
                pass
            else:
                # Unchecked: the last request may have died on another thread.
                with _Activation(self, False):
                    txn.abort()
        self.txn = None
        self.unpin()
        self._host._forget_session(self)


class _Activation:
    """``with session.activate():`` as a slotted object, not a generator
    (a cross-shard wire commit makes two dozen).  Only a thread's first
    entry takes the mutex: the owner alone sets and clears
    ``_active_thread``."""

    __slots__ = ("session", "checked", "owner", "prev")

    def __init__(self, session: ClientSession, checked: bool) -> None:
        self.session, self.checked, self.owner = session, checked, False

    def __enter__(self) -> Any:
        sess = self.session
        if self.checked:
            if sess.closed:
                raise SessionStateError(f"{sess.name} is closed")
            if sess._active_thread != (me := threading.get_ident()):
                with sess._mutex:
                    if sess._active_thread is not None:
                        raise SessionStateError(
                            f"{sess.name} is already active on another thread"
                        )
                    sess._active_thread, self.owner = me, True
        local = sess._host._tlocal
        self.prev = getattr(local, "active_session", None)
        local.active_session = sess
        return sess

    def __exit__(self, *exc: object) -> None:
        self.session._host._tlocal.active_session = self.prev
        if self.owner:
            self.session._active_thread = None


class ResilienceCounters:
    """``run_transaction`` bookkeeping, surfaced under ``txn.*`` in stats."""

    __slots__ = ("attempts", "commits", "conflicts", "retries", "giveups",
                 "backoff_seconds")

    def __init__(self) -> None:
        self.attempts = 0
        self.commits = 0
        self.conflicts = 0
        self.retries = 0
        self.giveups = 0
        self.backoff_seconds = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "txn.attempts": self.attempts,
            "txn.commits": self.commits,
            "txn.conflicts": self.conflicts,
            "txn.retries": self.retries,
            "txn.giveups": self.giveups,
            "txn.backoff_seconds": self.backoff_seconds,
        }


class SessionHost:
    """What an engine does for its clients, once for both engines.

    The host class supplies ``_new_session(name)`` (its session type) and
    ``begin(lock_timeout=..., snapshot_reads=...)``, which parks the new
    transaction in the calling session's ``txn``.
    """

    def _init_session_host(self) -> None:
        self._tlocal = threading.local()
        # Client state lives in sessions.  Embedded callers get an
        # implicit per-thread session lazily; explicit sessions (the
        # network layer's) are tracked for teardown/stats.
        self._sessions: set[Any] = set()
        self._session_mutex = threading.Lock()
        #: Extra stats providers (e.g. the network server) merged into
        #: ``stats()`` -- each is a zero-arg callable returning a dict.
        self._stats_sources: list[Callable[[], dict[str, Any]]] = []
        self._resilience = ResilienceCounters()

    # -- sessions -------------------------------------------------------------

    def session(self, name: str | None = None) -> Any:
        """Create an explicit client session.

        The session owns the client's open transaction and pinned read
        context; activate it around each request with
        :meth:`ClientSession.activate` (any thread may do so, one at a
        time).  The network server creates one per connection.
        """
        sess = self._new_session(name)
        with self._session_mutex:
            self._sessions.add(sess)
        return sess

    @property
    def session_count(self) -> int:
        """Open explicit sessions (implicit per-thread ones not counted)."""
        with self._session_mutex:
            return len(self._sessions)

    def _forget_session(self, sess: Any) -> None:
        with self._session_mutex:
            self._sessions.discard(sess)

    def _current_session(self, create: bool = True) -> Any:
        """The calling thread's session: the activated one, else implicit.

        The implicit session reproduces the pre-session thread-local
        behaviour for embedded callers; it is created lazily (``create``)
        and never registered -- it lives and dies with its thread.
        """
        sess = getattr(self._tlocal, "active_session", None)
        if sess is not None:
            return sess
        sess = getattr(self._tlocal, "implicit_session", None)
        if sess is None and create:
            sess = self._new_session(f"thread-{threading.get_ident()}")
            self._tlocal.implicit_session = sess
        return sess

    # -- transactions -----------------------------------------------------------

    def current_transaction(self) -> Any:
        """The calling session's active transaction, if any.

        The session is the activated one (network requests) or the
        thread's implicit session (embedded callers) -- see
        :meth:`_current_session`.
        """
        sess = self._current_session(create=False)
        if sess is None:
            return None
        txn = sess.txn
        if txn is not None and txn.state != "active":
            sess.txn = None
            return None
        return txn

    @contextmanager
    def transaction(
        self,
        lock_timeout: float | None = None,
        snapshot_reads: bool = False,
    ) -> Iterator[Any]:
        """``with engine.transaction():`` -- commit on exit, abort on error.

        ``snapshot_reads=True`` starts a snapshot-read transaction (see
        ``begin``): reads are lock-free against a pinned snapshot and
        writes raise :class:`~repro.errors.ReadOnlySnapshotError`.

        A block that fails -- in its body or in the commit -- must not
        leave the transaction attached to the session (that would wedge
        every later ``begin()`` with "already active"), so it is aborted,
        and the failure itself is the error that surfaces.  Two things are
        never aborted: a *decided* transaction (its verdict is durable;
        restart resolution completes it) and anything at all once a
        simulated crash has fired (a dead process touches nothing).
        """
        txn = self.begin(lock_timeout=lock_timeout, snapshot_reads=snapshot_reads)
        try:
            yield txn
            if txn.state == "active":
                txn.commit()
        except BaseException:
            if txn.state == "active" and not txn.decided and not probe.crashed():
                try:
                    txn.abort()
                except Exception:
                    pass
            raise

    # -- attached stats ---------------------------------------------------------

    def add_stats_source(self, source: Callable[[], dict[str, Any]]) -> None:
        """Merge ``source()`` into every ``stats()`` call (e.g. ``net.*``)."""
        self._stats_sources.append(source)

    def remove_stats_source(self, source: Callable[[], dict[str, Any]]) -> None:
        """Detach a stats source added by :meth:`add_stats_source`."""
        try:
            self._stats_sources.remove(source)
        except ValueError:
            pass

    # -- retrying transactions ----------------------------------------------------

    def run_transaction(
        self,
        fn: Callable[[], Any],
        *,
        max_attempts: int = 5,
        backoff: float = 0.01,
        max_backoff: float = 0.5,
        deadline: float | None = None,
        lock_timeout: float | None = None,
        retry_on: tuple[type[BaseException], ...] = RETRYABLE_ERRORS,
    ) -> Any:
        """Run ``fn`` inside a transaction, retrying transient conflicts.

        ``fn`` takes no arguments, performs its reads and writes through
        this engine, and returns the call's result.  On a retryable
        conflict (:data:`RETRYABLE_ERRORS` by default -- deadlock victim,
        lock deadline, aborted transaction; on the router a cross-shard
        deadlock surfaces as a per-shard lock timeout) the attempt's
        transaction is rolled back and ``fn`` re-executes **from
        scratch**, so it must not carry reads across attempts (re-read
        everything it needs).

        Backoff between attempts is exponential with full jitter
        (``uniform(0, min(max_backoff, backoff * 2**(attempt-1)))``),
        which decorrelates retrying transactions so they stop re-colliding.
        ``deadline`` bounds the whole call in seconds; ``max_attempts``
        bounds the number of executions.  Non-retryable errors -- invariant
        violations, user exceptions, degraded mode -- propagate from the
        first attempt.

        Called with a transaction already active on this session, ``fn``
        joins it and runs exactly once with no retry: the ambient
        transaction owns commit/abort, and re-running ``fn`` alone could
        not undo the enclosing transaction's earlier work.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.current_transaction() is not None:
            return fn()
        counters = self._resilience
        start = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            counters.attempts += 1
            try:
                with self.transaction(lock_timeout=lock_timeout):
                    result = fn()
            except retry_on:
                counters.conflicts += 1
                out_of_attempts = attempt >= max_attempts
                out_of_time = (
                    deadline is not None
                    and time.monotonic() - start >= deadline
                )
                if out_of_attempts or out_of_time:
                    counters.giveups += 1
                    raise
                pause = random.uniform(
                    0.0, min(max_backoff, backoff * (2 ** (attempt - 1)))
                )
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - (time.monotonic() - start)))
                counters.retries += 1
                counters.backoff_seconds += pause
                if pause > 0:
                    time.sleep(pause)
                continue
            counters.commits += 1
            return result
