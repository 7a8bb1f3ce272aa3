"""Asyncio client: pooled connections, pipelined correlated requests.

An :class:`OdeConnection` is one socket and one server-side session.
Every request gets a fresh correlation id; the response resolves the
matching future, so **many requests may be in flight at once** and may
complete out of order -- pipelining is just ``asyncio.gather`` over
plain :meth:`OdeConnection.request` calls::

    conn = await OdeConnection.open(host, port)
    vals = await asyncio.gather(*(conn.read(oid, "n") for oid in oids))

An :class:`OdeClient` pools N connections.  Reads round-robin across
the pool; a write or a transaction runs through :meth:`OdeClient.lease`::

    async with client.lease() as conn:
        await conn.begin()
        await conn.write(oid, "n", await conn.read(oid, "n") + 1)
        await conn.commit()

The contract is in docs/API.md ("Network service", "Fault tolerance &
overload"): session ops execute in send order, so a ``begin/write/.../
commit`` may be one burst (only health checks, plain pings and reads
outside a transaction overtake queued work); kernel errors come back as
themselves (``except DeadlockError`` works across the wire), anything
else as :class:`~repro.errors.RemoteError`.

**Write-behind.**  ``begin()``, and ``write``, ``pdelete`` and
``newversion`` inside a transaction, do not wait (up to the server's
``max_inflight``): one that fails dooms the transaction, and the next
awaited frame raises its error.  ``newversion`` answers a
:class:`VidPromise`, which later frames of the transaction may target.

Every request is bounded by a deadline, the wait to send included
(:meth:`OdeConnection.request`); :func:`is_retryable` is the error
taxonomy, and the pool heals itself (:meth:`OdeClient._heal`).
"""

from __future__ import annotations

import asyncio
import itertools
import random
import threading
from contextlib import asynccontextmanager
from typing import Any, AsyncIterator

from repro.core.database import RETRYABLE_ERRORS
from repro.core.identity import Oid, Vid
from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    FrameBodyError,
    NetworkError,
    OdeError,
    ProtocolError,
    RemoteError,
    ServerDrainingError,
    ServerOverloadedError,
    ShardUnavailableError,
    TransactionStateError,
)
from repro.net import protocol

#: Cork limit: a pipelined burst whose corked frames exceed this many
#: bytes goes to the transport at once, not at the end of the loop
#: iteration.  (Client-side buffering is bounded by the transport's
#: ``pause_writing``: see :meth:`OdeConnection.request`.)
_FLUSH_BYTES = 128 * 1024

_TXN_END = frozenset({protocol.OP_COMMIT, protocol.OP_ABORT})
_UNCOUNTED = _TXN_END | {protocol.OP_HEALTH, protocol.OP_PING}  # not in max_inflight

#: Default per-op deadline (seconds).  Every wire op completes or fails
#: within this bound unless the caller overrides it; ``None`` (wait
#: forever) must be asked for explicitly.
DEFAULT_DEADLINE = 30.0

#: Wire-layer errors a fresh attempt can win: the server never ran the
#: op (shed/drain), the wait was bounded away (deadline), the link died
#: (reconnect and re-run), or a shard was down (it may reattach).  The
#: kernel's transient conflicts (deadlock victim, lock timeout, abort)
#: ride along so one `except` guards a whole wire transaction retry
#: loop.  NOT here: ProtocolError (a bug or hostile peer) and
#: RemoteError (an unclassified server failure).
RETRYABLE_WIRE_ERRORS: tuple[type[BaseException], ...] = (
    DeadlineExceededError,
    ConnectionClosedError,
    ServerOverloadedError,
    ServerDrainingError,
    ShardUnavailableError,
    ConnectionError,
    TimeoutError,
) + RETRYABLE_ERRORS


def is_retryable(exc: BaseException) -> bool:
    """The wire error taxonomy: may a backoff-and-retry succeed?

    ``ProtocolError`` is explicitly non-retryable even though it derives
    from :class:`~repro.errors.NetworkError`: a malformed stream means a
    bug (or a chaos test), not a transient.
    """
    if isinstance(exc, ProtocolError):
        return False
    return isinstance(exc, RETRYABLE_WIRE_ERRORS)


#: Process-wide wire-client counters (all clients, all loops), surfaced
#: through an embedded server's stats source: ``db.stats()`` and ``inspect``
#: report client-observed failure handling next to the server's numbers
#: (the stress and chaos harnesses run client and server in one process).
_COUNTERS = {"net.deadline_expired": 0, "net.reconnects": 0}
_COUNTERS_LOCK = threading.Lock()


def _bump(name: str) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[name] += 1


def local_client_stats() -> dict[str, int]:
    """This process's wire-client counters (see :data:`_COUNTERS`)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


_UNSET = object()


class OdeConnection(asyncio.Protocol):
    """One socket, one server session, any number of in-flight requests.

    An :class:`asyncio.Protocol`: :meth:`data_received` decodes each
    chunk and resolves the waiting futures directly.
    """

    def __init__(
        self,
        max_frame: int = protocol.MAX_FRAME_BYTES,
        default_deadline: float | None = DEFAULT_DEADLINE,
    ) -> None:
        #: The socket transport, from ``connection_made`` on.
        self.transport: asyncio.Transport | None = None
        self._cid = 0  # the last correlation id sent
        self._pending: dict[int, asyncio.Future] = {}
        self._decoder = protocol.FrameDecoder(max_frame)
        self._closed = False
        self._close_reason: BaseException | None = None
        self._outbuf = bytearray()
        self._flush_handle: asyncio.Handle | None = None
        #: Seconds each request may wait before DeadlineExceededError;
        #: None waits forever.  Per-op ``deadline=`` overrides this.
        self.default_deadline = default_deadline
        #: Requests on this connection that hit their deadline.
        self.deadline_expired = 0
        self._loop = asyncio.get_running_loop()
        #: Pending from ``pause_writing`` (the transport's write buffer
        #: is over its high-water mark) to ``resume_writing``.
        self._paused: asyncio.Future[None] | None = None
        self._lost = self._loop.create_future()  # set by ``connection_lost``
        self._in_txn = False  # from begin() to a COMMIT/ABORT sent
        #: The server's ``max_inflight``, learnt with the first ``begin()``.
        self._max_inflight = 0
        self._behind: asyncio.Future | None = None  # the last unawaited frame

    @classmethod
    async def open(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int = protocol.MAX_FRAME_BYTES,
        default_deadline: float | None = DEFAULT_DEADLINE,
        connect_timeout: float | None = None,
    ) -> "OdeConnection":
        """Open a connection; the TCP connect itself is deadline-bounded.

        ``connect_timeout`` defaults to ``default_deadline`` -- a server
        that accepts-then-stalls (or a black-holed route) must not hang
        the caller forever at open time either.
        """
        timeout = connect_timeout if connect_timeout is not None else default_deadline
        loop = asyncio.get_running_loop()
        try:
            _transport, conn = await asyncio.wait_for(
                loop.create_connection(
                    lambda: cls(max_frame, default_deadline), host, port
                ),
                timeout,
            )
        except asyncio.TimeoutError:
            _bump("net.deadline_expired")
            raise DeadlineExceededError(
                f"connect to {host}:{port} did not complete within {timeout:g}s"
            ) from None
        return conn

    # -- the pipe (asyncio.Protocol callbacks) ---------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        while True:
            try:
                for opcode, cid, payload in self._decoder.feed(data):
                    self._complete(opcode, cid, payload)
                return
            except FrameBodyError as exc:
                # One response that does not decode (say, an image of a
                # type not registered here) fails its own request only.
                cause = exc.__cause__
                self._complete(None, exc.cid, cause if isinstance(cause, OdeError) else exc)
                data = b""
            except ProtocolError as exc:
                self._condemn(exc)  # framing is lost: nothing after it can be trusted
                return

    def connection_lost(self, exc: BaseException | None) -> None:
        """EOF, reset or ``close()``: the transport has closed itself."""
        if isinstance(exc, ConnectionResetError):
            exc = None  # a routine disconnect
        self._fail_pending(exc)
        if self._paused is not None:
            self.resume_writing()  # parked requests wake to a closed connection
        self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._paused = self._loop.create_future()

    def resume_writing(self) -> None:
        paused, self._paused = self._paused, None
        paused.set_result(None)
        self._flush()

    def _complete(self, opcode: int | None, cid: int, payload: Any) -> None:
        """Resolve request ``cid``; ``opcode`` None fails it with ``payload``."""
        if cid == 0 and opcode == protocol.RESP_ERR:
            # Connection-level error (e.g. our frame was oversized): the
            # server is hanging up.  Fail everything in flight *now* --
            # those responses are never coming, and EOF may never come.
            self._condemn(protocol.remote_error(payload))
            return
        future = self._pending.pop(cid, None)
        if future is None or future.done():
            return  # response to a cancelled/timed-out request
        if opcode == protocol.RESP_OK:
            future.set_result(payload)
        else:
            future.set_exception(payload if opcode is None else protocol.remote_error(payload))

    def _condemn(self, reason: BaseException) -> None:
        """The stream is unusable: fail what is in flight, hang up."""
        self._fail_pending(reason)
        self.transport.close()

    def _fail_pending(self, reason: BaseException | None) -> None:
        self._closed = True
        if reason is None:
            reason = self._close_reason
        elif self._close_reason is None:
            self._close_reason = reason
        for future in self._pending.values():
            if not future.done():
                suffix = f" ({reason!r})" if reason else ""
                future.set_exception(
                    ConnectionClosedError(f"connection closed with request in flight{suffix}")
                )
        self._pending.clear()

    @property
    def closed(self) -> bool:
        """True once the connection is unusable (closed, reset, or EOF seen)."""
        return self._closed or self.transport.is_closing()

    # -- requests ------------------------------------------------------------

    def send(self, opcode: int, payload: Any = None) -> "asyncio.Future[Any]":
        """Issue one request; return the future of its response.

        The raw pipelining primitive: it assigns a correlation id, corks
        the frame, and returns at once -- no coroutine, no task.  Frames
        corked in one event-loop iteration coalesce into a single socket
        write (N pipelined requests, one syscall); responses resolve
        their futures in whatever order the server finishes them.  It
        cannot wait, so it applies no backpressure: :meth:`request` does.
        """
        if self._closed or self.transport.is_closing():
            # Fail eagerly: corking a frame onto a dead transport would
            # park the caller on a future no response can ever resolve.
            reason = self._close_reason
            suffix = f" ({reason!r})" if reason is not None else ""
            raise ConnectionClosedError(f"connection is closed{suffix}")
        if opcode in _TXN_END:
            self._in_txn = False
        self._cid = cid = self._cid + 1
        future = self._loop.create_future()
        self._pending[cid] = future
        try:
            protocol.build_frame_into(self._outbuf, opcode, cid, payload)
        except BaseException:
            self._pending.pop(cid, None)
            raise
        if len(self._outbuf) >= _FLUSH_BYTES:
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = self._loop.call_soon(self._flush)
        return future

    async def request(
        self, opcode: int, payload: Any = None, *, deadline: Any = _UNSET
    ) -> Any:
        """Send one frame, await its correlated response (see :meth:`send`).

        The wait is bounded by ``deadline`` (default: the connection's
        ``default_deadline``; ``None`` waits forever) -- the wait to send
        at all included, while the server is not taking our bytes.  On
        expiry the request is *abandoned*, not cancelled: the server may
        still execute it, and its entry (like a cancelled request's)
        stays pending until the late response pops it, to be discarded.
        """
        timeout = self.default_deadline if deadline is _UNSET else deadline
        if self._paused is not None:
            timeout = await self._writable(opcode, timeout)
        elif self._in_txn and opcode not in _UNCOUNTED:
            await self._room(timeout)
        future = self.send(opcode, payload)
        if timeout is None:
            return await future
        # One timer handle around the bare future: no wrapper task, no
        # shield -- an answered request costs a call_later and a cancel.
        handle = self._loop.call_later(
            timeout, self._expire, future, opcode, timeout
        )
        try:
            return await future
        finally:
            handle.cancel()

    async def _writable(self, opcode: int, timeout: float | None) -> float | None:
        """Backpressure: wait out ``pause_writing`` within the request's
        own deadline; returns what is left of it."""
        give_up = None if timeout is None else self._loop.time() + timeout
        left = timeout
        while self._paused is not None:  # a resume wakes every waiter: look again
            try:
                await asyncio.wait_for(asyncio.shield(self._paused), left)
            except asyncio.TimeoutError:
                raise self._expired(
                    opcode, f"was not sent within {timeout:g}s: the server is not reading"
                ) from None
            if give_up is not None:
                left = max(0.0, give_up - self._loop.time())
        return left

    async def _room(self, timeout: float | None) -> None:
        """At ``max_inflight``, wait for the last unawaited frame's answer."""
        if len(self._pending) >= self._max_inflight and self._behind is not None:
            await asyncio.wait((self._behind,), timeout=timeout)

    async def _write_behind(self, opcode: int, payload: Any, deadline: Any) -> Any:
        """Send a frame; inside a transaction without waiting (``None``:
        the COMMIT reports its error), but at the server's
        ``max_inflight`` only once the frame before it is answered."""
        if not self._in_txn or self._paused:
            return await self.request(opcode, payload, deadline=deadline)
        await self._room(self.default_deadline if deadline is _UNSET else deadline)
        self._behind = self.send(opcode, payload)
        self._behind.add_done_callback(_retrieved)

    def _expire(self, future: asyncio.Future, opcode: int, timeout: float) -> None:
        """Deadline timer: fail the still-pending request's future."""
        if not future.done():
            future.set_exception(self._expired(
                opcode, f"did not complete within {timeout:g}s "
                "(the op may still execute server-side)"
            ))

    def _expired(self, opcode: int, what: str) -> DeadlineExceededError:
        self.deadline_expired += 1
        _bump("net.deadline_expired")
        return DeadlineExceededError(f"{protocol.opcode_name(opcode)} {what}")

    def _flush(self) -> None:
        """Push the corked frames to the transport in one write."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._outbuf or self._paused is not None:
            return  # paused: stay corked until ``resume_writing``
        if self.transport.is_closing():
            # The transport died between send() and the flush: these
            # frames will never reach the server, so their futures must
            # fail now rather than wait on responses that cannot come.
            self._outbuf = bytearray()
            self._fail_pending(self._close_reason)
            return
        buf, self._outbuf = self._outbuf, bytearray()
        self.transport.write(buf)  # buffer handed off: no copy

    async def close(self) -> None:
        """Close the socket; the server aborts the session's open txn.
        Idempotent, and a no-op on a connection that already closed
        itself (EOF, reset, a connection-level error frame)."""
        if not self._closed:
            self._closed = True
            self._flush()
        if self.transport.get_write_buffer_size():
            # Unsent frames nobody will be answered for: do not wait on
            # a peer that is not reading to take them.
            self.transport.abort()
        else:
            self.transport.close()
        await self._lost

    async def __aenter__(self) -> "OdeConnection":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- op helpers ----------------------------------------------------------
    # Every helper takes ``deadline=`` (seconds, default the connection's
    # default_deadline, None = forever) so callers can tighten or relax
    # the bound per op.

    async def ping(self, payload: Any = None, *, deadline: Any = _UNSET) -> Any:
        return await self.request(protocol.OP_PING, payload, deadline=deadline)

    async def health(self, *, deadline: Any = _UNSET) -> dict[str, Any]:
        """The server's heartbeat: liveness, drain state, shard health.

        Served on the inline lane even while the server is draining, so
        a load balancer (or the chaos harness) can distinguish "slow"
        from "going away" from "gone".
        """
        return await self.request(protocol.OP_HEALTH, None, deadline=deadline)

    async def begin(
        self, *, snapshot_reads: bool = False, deadline: Any = _UNSET
    ) -> None:
        """Open this session's transaction without waiting: a BEGIN refused
        (drain, shed) or failed (one already open) dooms the frames behind
        it, so the next awaited one or ``commit()`` raises its error.  The
        first also awaits a pipelined health check for ``max_inflight``."""
        self._in_txn = True
        await self._write_behind(
            protocol.OP_BEGIN, {"snapshot_reads": snapshot_reads}, deadline
        )
        if not self._max_inflight:
            self._max_inflight = (await self.health(deadline=deadline))["max_inflight"]

    async def commit(self, *, deadline: Any = _UNSET) -> None:
        """Commit, or roll back and raise the error that doomed it."""
        await self.request(protocol.OP_COMMIT, deadline=deadline)

    async def abort(self, *, deadline: Any = _UNSET) -> None:
        await self.request(protocol.OP_ABORT, deadline=deadline)

    async def pnew(self, obj: Any, *, deadline: Any = _UNSET) -> Oid:
        """Create a persistent object server-side; returns its Oid."""
        return await self.request(protocol.OP_PNEW, obj, deadline=deadline)

    async def newversion(self, target: Target, *, deadline: Any = _UNSET) -> Any:
        """Derive a version: its Vid, or inside a transaction at once a
        :class:`VidPromise` of it (write-behind; the frames behind it may
        target the promise, so derive-and-edit is one round trip)."""
        vid = await self._write_behind(protocol.OP_NEWVERSION, _wire(target), deadline)
        return vid if vid is not None else VidPromise(self._cid, self._behind)

    async def pdelete(self, target: Target, *, deadline: Any = _UNSET) -> None:
        await self._write_behind(protocol.OP_PDELETE, _wire(target), deadline)

    async def read(
        self,
        target: Target,
        attr: str | None = None,
        *,
        deadline: Any = _UNSET,
    ) -> Any:
        """Materialize the target version, or read one attribute of it."""
        return await self.request(protocol.OP_READ, (_wire(target), attr), deadline=deadline)

    async def write(
        self, target: Target, attr: str, value: Any, *, deadline: Any = _UNSET
    ) -> None:
        """In-place update of one attribute of the target version
        (write-behind in a transaction: ``deadline`` then bounds only a
        wait for room under the server's ``max_inflight``)."""
        await self._write_behind(protocol.OP_WRITE, (_wire(target), attr, value), deadline)

    async def query(
        self,
        type_name: str,
        where: tuple[str, Any] | None = None,
        *,
        deadline: Any = _UNSET,
    ) -> list[Oid]:
        """Cluster scan with optional equality filter; returns oids."""
        return await self.request(protocol.OP_QUERY, (type_name, where), deadline=deadline)

    async def snapshot(
        self, pin: bool = True, *, deadline: Any = _UNSET
    ) -> int | None:
        """Pin (or release) the session's snapshot read context.

        While pinned, reads outside transactions resolve lock-free
        against the pinned epoch (the server re-pins automatically when
        publication advances).  Returns the pinned epoch.
        """
        return await self.request(protocol.OP_SNAPSHOT, {"pin": pin}, deadline=deadline)

    async def stats(self, *, deadline: Any = _UNSET) -> dict[str, Any]:
        """The server database's stats(), including ``net.*`` counters."""
        return await self.request(protocol.OP_STATS, deadline=deadline)


def _retrieved(future: asyncio.Future) -> None:
    """An unawaited frame's error is the COMMIT's to report, not a lost one."""
    future.cancelled() or future.exception()


class VidPromise:
    """The Vid a NEWVERSION sent inside a transaction answers: ``.vid``,
    ``.oid`` and ``.serial`` once it is in (at the latest with the next
    awaited frame), before that :class:`TransactionStateError`, after a
    failed NEWVERSION its error; ``await promise`` for the Vid.  As a
    target it travels as the Vid once answered, else as ``(cid,)``, the
    NEWVERSION's cid.  Not a Vid: equal and hashed by identity only."""

    __slots__ = ("cid", "_answer")

    def __init__(self, cid: int, answer: asyncio.Future) -> None:
        self.cid = cid
        self._answer = answer

    @property
    def vid(self) -> Vid:
        if not self._answer.done():
            raise TransactionStateError(f"NEWVERSION {self.cid} is not answered yet")
        return self._answer.result()

    oid = property(lambda self: self.vid.oid)
    serial = property(lambda self: self.vid.serial)

    def __await__(self):
        return asyncio.shield(self._answer).__await__()


Target = Oid | Vid | VidPromise


def _wire(target: Any) -> Any:
    """A :class:`VidPromise` travels as its Vid once answered, else as
    ``(cid,)``; any other target as it is."""
    if target.__class__ is not VidPromise:
        return target
    answer = target._answer
    if answer.done() and not answer.cancelled() and answer.exception() is None:
        return answer.result()
    return (target.cid,)


class OdeClient:
    """A pool of connections to one server.

    ``pool_size`` connections are opened up front; the read helpers
    round-robin across them, :meth:`lease` checks one out for a
    transactional sequence (returned on exit, even on error -- with the
    transaction aborted if the caller left it open).
    """

    def __init__(self) -> None:
        self._conns: list[OdeConnection] = []
        self._free: asyncio.Queue[OdeConnection] | None = None
        self._rr = itertools.count()
        self._host = "127.0.0.1"
        self._port = 0
        self._deadline: float | None = DEFAULT_DEADLINE
        self._reconnect_attempts = 5
        self._reconnect_backoff = 0.05
        self._reconnect_max_backoff = 1.0
        self._jitter = random.Random()
        #: Dead connections replaced by the pool's self-healing.
        self.heals = 0

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool_size: int = 4,
        deadline: float | None = DEFAULT_DEADLINE,
        reconnect_attempts: int = 5,
        reconnect_backoff: float = 0.05,
        reconnect_max_backoff: float = 1.0,
    ) -> "OdeClient":
        """Open the pool.

        ``deadline`` becomes every pooled connection's default per-op
        deadline (None = no bound).  ``reconnect_*`` shape the pool's
        self-healing: on a dead connection, up to ``reconnect_attempts``
        reopen attempts with jittered exponential backoff starting at
        ``reconnect_backoff`` seconds, capped at
        ``reconnect_max_backoff``.
        """
        client = cls()
        client._host = host
        client._port = port
        client._deadline = deadline
        client._reconnect_attempts = max(1, reconnect_attempts)
        client._reconnect_backoff = reconnect_backoff
        client._reconnect_max_backoff = reconnect_max_backoff
        client._conns = list(
            await asyncio.gather(
                *(
                    OdeConnection.open(host, port, default_deadline=deadline)
                    for _ in range(pool_size)
                )
            )
        )
        client._free = asyncio.Queue()
        for conn in client._conns:
            client._free.put_nowait(conn)
        return client

    async def _heal(self, dead: OdeConnection) -> OdeConnection:
        """Replace a dead pooled connection with a freshly opened one.

        Reconnects retry with jittered exponential backoff (full jitter:
        a uniform draw up to the current cap, so a swarm of healing
        clients does not reconnect in lockstep).  The dead socket is
        retired from the pool either way; if every attempt fails, the
        pool shrinks by one and the error propagates (the server is
        presumably down -- a permanently dead connection circulating in
        the pool would fail every future lease instead of just this
        one).
        """
        try:
            await dead.close()  # a no-op if it closed itself (EOF, error frame)
        except Exception:
            pass  # already dead; reclaiming its resources is best-effort
        if dead in self._conns:
            self._conns.remove(dead)
        delay = self._reconnect_backoff
        last_exc: BaseException | None = None
        for attempt in range(self._reconnect_attempts):
            if attempt:
                await asyncio.sleep(self._jitter.uniform(0, delay))
                delay = min(delay * 2, self._reconnect_max_backoff)
            try:
                replacement = await OdeConnection.open(
                    self._host, self._port, default_deadline=self._deadline
                )
                break
            except (ConnectionClosedError, OSError, DeadlineExceededError) as exc:
                last_exc = exc
        else:
            if isinstance(last_exc, ConnectionClosedError):
                raise last_exc
            raise NetworkError(
                f"pooled connection died and {self._reconnect_attempts} "
                f"reconnect attempts to {self._host}:{self._port} failed: "
                f"{last_exc!r}"
            ) from last_exc
        self._conns.append(replacement)
        self.heals += 1
        _bump("net.reconnects")
        return replacement

    @property
    def connections(self) -> list[OdeConnection]:
        """The pool (exposed for benchmarks driving raw connections)."""
        return self._conns

    def _any(self) -> OdeConnection:
        if not self._conns:
            raise NetworkError("client is not connected")
        # Round-robin, skipping dead connections (lease() heals them) and
        # ones inside a leased transaction (whose doom a read would answer).
        for _ in range(len(self._conns)):
            conn = self._conns[next(self._rr) % len(self._conns)]
            if not conn.closed and not conn._in_txn:
                return conn
        return self._conns[next(self._rr) % len(self._conns)]

    @asynccontextmanager
    async def lease(self) -> AsyncIterator[OdeConnection]:
        """Check a connection out of the pool for a transactional run.

        The pool self-heals: a connection that died while parked is
        replaced before the caller sees it, and one that died during
        the lease is replaced before going back -- a dead socket never
        recirculates, so one connection loss costs one reconnect, not a
        permanently poisoned pool slot.
        """
        assert self._free is not None, "client is not connected"
        conn = await self._free.get()
        if conn.closed:
            try:
                conn = await self._heal(conn)
            except BaseException:
                # Reconnect failed: the drawn slot is gone; give the
                # queue its ticket back so the pool cannot deadlock.
                self._free.put_nowait(conn)
                raise
        try:
            yield conn
        except BaseException:
            # Leave no open transaction behind on the shared connection.
            if not conn.closed:
                try:
                    await conn.abort()
                except Exception:
                    pass
            raise
        finally:
            if conn.closed:
                # Replace the casualty now if the server is reachable;
                # otherwise re-queue the dead connection as a ticket --
                # the next lease retries the reconnect and reports the
                # outage instead of silently shrinking the pool.
                try:
                    conn = await self._heal(conn)
                except Exception:
                    pass
            self._free.put_nowait(conn)

    # Reads round-robin over the pool (see _any); anything that changes
    # the database goes through lease().

    async def health(self) -> dict[str, Any]:
        return await self._any().health()

    async def read(self, target: Oid | Vid, attr: str | None = None) -> Any:
        return await self._any().read(target, attr)

    async def query(
        self, type_name: str, where: tuple[str, Any] | None = None
    ) -> list[Oid]:
        return await self._any().query(type_name, where)

    async def stats(self) -> dict[str, Any]:
        return await self._any().stats()

    async def close(self) -> None:
        await asyncio.gather(
            *(c.close() for c in self._conns), return_exceptions=True
        )
        self._conns = []

    async def __aenter__(self) -> "OdeClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

