"""Asyncio server: the database kernel behind a pipelined socket API.

One :class:`OdeServer` wraps one open :class:`~repro.core.database.
Database`.  Each accepted connection gets its own
:class:`~repro.core.session.Session`; frames are decoded as they arrive
and dispatched **concurrently**, so a pipelining client gets
out-of-order completion (responses carry the request's correlation id).

Three execution lanes, chosen per request:

* **Snapshot reads, inline.**  A read or query on a session with no open
  transaction is served from the session's pinned snapshot
  (:meth:`Session.reader`, the PR-4 lock-free path): zero SHARED locks,
  no storage mutex -- and therefore safe to run directly on the event
  loop, skipping the thread-pool hop entirely.  This is the hot path for
  read-mostly swarms.
* **Session-stateful ops, serialized.**  begin/commit/abort/write/
  newversion/pnew/pdelete -- and reads *inside* a transaction, which
  must take their 2PL SHARED locks -- run on the worker thread pool with
  the session activated, behind a per-session FIFO lock: one client's
  operations execute in the order it sent them, while different
  sessions proceed in parallel.
* **Commits, grouped.**  Commits block in the pool on the WAL flush;
  because many sessions' commits run there concurrently, they ride the
  WAL's group-commit window (one fsync per group -- the PR-1 machinery,
  measured by ``wal.group_piggybacks``).  ``net.commits_overlapped``
  counts commits that found another commit already in flight, i.e. the
  grouping opportunity the server actually created.

``net.*`` counters (connections, sessions, in-flight requests, pipeline
depth, bytes in/out) are registered with ``Database.add_stats_source``,
so ``db.stats()`` and ``repro.tools.inspect`` report the service tier
next to the kernel's own numbers.

:class:`ServerThread` runs a server on a private event loop in a
daemon thread -- the embedding used by the stress harness, the swarm
benchmark, and tests that drive a live socket from synchronous code.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.core.cache import READ_MISS
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.session import Session
from repro.errors import (
    NetworkError,
    ProtocolError,
    ServerDrainingError,
    ServerOverloadedError,
    SessionStateError,
    TransactionStateError,
)
from repro.net import protocol
from repro.net.client import local_client_stats
from repro.net.protocol import (
    OP_ABORT,
    OP_BEGIN,
    OP_COMMIT,
    OP_HEALTH,
    OP_NEWVERSION,
    OP_PDELETE,
    OP_PING,
    OP_PNEW,
    OP_QUERY,
    OP_READ,
    OP_SNAPSHOT,
    OP_STATS,
    OP_WRITE,
    RESP_ERR,
    RESP_OK,
)

#: Default worker threads.  Writes serialize per session and block on
#: locks/fsync; a few times the CPU count keeps commits grouping without
#: letting lock waiters starve the pool.
DEFAULT_WORKERS = 16

#: Default bound on dispatched-but-incomplete ops per connection.  A
#: client pipelining past this gets :class:`ServerOverloadedError`
#: rejections (the request never executes) instead of growing the
#: server's task set without limit.
DEFAULT_MAX_INFLIGHT = 128

#: Default seconds a response write may sit blocked on a client that is
#: not reading before the connection is forcibly dropped.
DEFAULT_SLOW_CLIENT_TIMEOUT = 30.0

#: Opcodes that start new work on the database.  While draining these
#: are refused for sessions with no open transaction -- in-flight
#: transactions get to finish, new ones are turned away.
_MUTATING_OPS = frozenset(
    {OP_BEGIN, OP_PNEW, OP_NEWVERSION, OP_PDELETE, OP_WRITE}
)

_READ_CHUNK = 256 * 1024


class _NetStats:
    """``net.*`` counters, shared across connections (lock-guarded)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections = 0
        self.connections_total = 0
        self.sessions = 0
        self.inflight = 0
        self.pipeline_max = 0
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.snapshot_reads = 0
        self.commits = 0
        self.commits_overlapped = 0
        self._commits_inflight = 0
        #: Requests rejected by admission control (never executed).
        self.shed = 0
        #: Requests refused because the server is draining.
        self.drain_rejects = 0
        #: Gauge: 1 while the server is draining (or drained).
        self.draining = 0
        #: Connections force-dropped for not reading their responses.
        self.slow_client_disconnects = 0

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            out = {
                "net.connections": self.connections,
                "net.connections_total": self.connections_total,
                "net.sessions": self.sessions,
                "net.inflight": self.inflight,
                "net.pipeline_max": self.pipeline_max,
                "net.requests": self.requests,
                "net.responses": self.responses,
                "net.errors": self.errors,
                "net.bytes_in": self.bytes_in,
                "net.bytes_out": self.bytes_out,
                "net.snapshot_reads": self.snapshot_reads,
                "net.commits": self.commits,
                "net.commits_overlapped": self.commits_overlapped,
                "net.shed": self.shed,
                "net.drain_rejects": self.drain_rejects,
                "net.draining": self.draining,
                "net.slow_client_disconnects": self.slow_client_disconnects,
            }
        # In-process client-side counters (the stress/chaos embeddings run
        # clients and server in one process): deadline expiries and pool
        # reconnects, reported next to the server's own numbers.
        out.update(local_client_stats())
        return out

    def request_started(self, depth: int) -> None:
        with self._lock:
            self.requests += 1
            self.inflight += 1
            if depth > self.pipeline_max:
                self.pipeline_max = depth

    def request_finished(self, ok: bool) -> None:
        with self._lock:
            self.inflight -= 1
            self.responses += 1
            if not ok:
                self.errors += 1

    def commit_started(self) -> None:
        with self._lock:
            self.commits += 1
            if self._commits_inflight > 0:
                self.commits_overlapped += 1
            self._commits_inflight += 1

    def commit_finished(self) -> None:
        with self._lock:
            self._commits_inflight -= 1

    def inline_batch(
        self, served: int, errors: int, snap_reads: int, depth: int, out: int
    ) -> None:
        """Account one read-chunk's worth of inline requests at once.

        The inline lane turns each pipelined burst into a single batch,
        so its counters update under one lock acquisition per chunk, not
        one per request.
        """
        with self._lock:
            self.requests += served
            self.responses += served
            self.errors += errors
            self.snapshot_reads += snap_reads
            self.bytes_out += out
            if depth > self.pipeline_max:
                self.pipeline_max = depth


class _Connection:
    """Per-connection state: session, FIFO op lock, in-flight tasks."""

    def __init__(self, session: Session, writer: asyncio.StreamWriter) -> None:
        self.session = session
        self.writer = writer
        self.op_lock = asyncio.Lock()  # FIFO: serializes stateful ops
        self.write_lock = asyncio.Lock()  # one response frame at a time
        self.tasks: set[asyncio.Task] = set()
        self.inflight = 0
        #: Dispatched-but-incomplete ops that may mutate the session's
        #: snapshot pin from an executor thread (OP_SNAPSHOT's pin /
        #: unpin).  While non-zero, event-loop reads must not touch
        #: ``session.reader()`` unserialized -- the snapshot they would
        #: resolve against can be closed out from under them.
        self.pin_ops = 0


class OdeServer:
    """Serve one database over the binary wire protocol.

    Parameters
    ----------
    db:
        The open database to expose.
    host, port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    workers:
        Worker threads for session-stateful operations.
    max_frame:
        Reject incoming frames declaring more than this many bytes
        (a clean error frame, then disconnect).
    max_inflight:
        Admission control: per-connection cap on dispatched-but-
        incomplete stateful ops.  Beyond it, requests are rejected with
        :class:`ServerOverloadedError` *before* execution (always safe
        to retry).
    slow_client_timeout:
        Seconds a response write may block on an unread socket before
        the connection is aborted (protects server memory from clients
        that send requests but never read responses).
    write_buffer_limit:
        Optional transport write-buffer high-water mark in bytes; low
        values make ``drain()`` exert backpressure early (used by tests
        to exercise the slow-client path without megabytes of backlog).
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = DEFAULT_WORKERS,
        max_frame: int = protocol.MAX_FRAME_BYTES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        slow_client_timeout: float = DEFAULT_SLOW_CLIENT_TIMEOUT,
        write_buffer_limit: int | None = None,
    ) -> None:
        self.db = db
        self.host = host
        self._requested_port = port
        self._max_frame = max_frame
        self._workers = workers
        self._max_inflight = max_inflight
        self._slow_client_timeout = slow_client_timeout
        self._write_buffer_limit = write_buffer_limit
        self.stats = _NetStats()
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False
        self._draining = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "OdeServer":
        """Bind and start accepting connections."""
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="ode-net"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.db.add_stats_source(self.stats.as_dict)
        return self

    async def close(self) -> None:
        """Stop accepting, drop every connection, tear sessions down."""
        if self._closed:
            return
        self._closed = True
        self.db.remove_stats_source(self.stats.as_dict)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            conn.writer.close()
            for task in list(conn.tasks):
                task.cancel()
        # Closed sockets EOF the handlers out of their reads; wait for
        # their teardowns so a closing event loop never destroys a
        # pending handler.  Stragglers (a handler wedged past the closed
        # socket) are cancelled outright.
        if self._conn_tasks:
            _, pending = await asyncio.wait(self._conn_tasks, timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has started (sticky until close)."""
        return self._draining

    async def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work.

        Three steps, in order:

        1. The listening socket closes -- no new connections.
        2. New transactions and mutations on idle sessions are refused
           with :class:`ServerDrainingError` (retryable against a
           replacement server); sessions with an *open* transaction keep
           executing so in-flight commits complete cleanly.
        3. Once every connection is quiescent (no in-flight ops, no open
           transaction) -- or ``timeout`` seconds pass -- the remaining
           idle sessions are aborted and the server closes.

        Health checks (:data:`~repro.net.protocol.OP_HEALTH`) keep
        answering throughout, reporting ``draining: True`` so load
        balancers can steer traffic away before the final cutover.
        """
        if self._draining or self._closed:
            return
        self._draining = True
        with self.stats._lock:
            self.stats.draining = 1
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            busy = [
                c
                for c in self._connections
                if c.inflight or c.session.txn is not None
            ]
            if not busy:
                break
            await asyncio.sleep(0.02)
        await self.close()

    async def __aenter__(self) -> "OdeServer":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        peer = writer.get_extra_info("peername")
        if self._write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(
                high=self._write_buffer_limit
            )
        session = self.db.session(name=f"net-{peer}")
        session.context["peer"] = peer
        conn = _Connection(session, writer)
        self._connections.add(conn)
        with self.stats._lock:
            self.stats.connections += 1
            self.stats.connections_total += 1
            self.stats.sessions += 1
        decoder = protocol.FrameDecoder(self._max_frame)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break  # EOF: client went away (possibly mid-frame)
                with self.stats._lock:
                    self.stats.bytes_in += len(data)
                await self._serve_chunk(conn, decoder, data)
        except ProtocolError as exc:
            # Bad magic / oversized / malformed: tell the client why,
            # then hang up.  cid 0 marks a connection-level error.
            await self._send(conn, RESP_ERR, 0, protocol.error_payload(exc))
            with self.stats._lock:
                self.stats.errors += 1
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # disconnects are routine, teardown below is what matters
        except asyncio.CancelledError:
            pass  # close() cancelling a straggler; still tear down below
        finally:
            await self._teardown(conn)

    async def _teardown(self, conn: _Connection) -> None:
        """Disconnect path: finish/cancel work, abort the txn, drop state."""
        self._connections.discard(conn)
        for task in list(conn.tasks):
            task.cancel()
        if conn.tasks:
            await asyncio.gather(*conn.tasks, return_exceptions=True)
        # Abort any transaction the client abandoned; Session.close also
        # unpins the snapshot and deregisters from the database.
        loop = asyncio.get_running_loop()
        if self._executor is not None and not self._closed:
            await loop.run_in_executor(self._executor, conn.session.close)
        else:
            conn.session.close()
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        with self.stats._lock:
            self.stats.connections -= 1
            self.stats.sessions -= 1

    async def _serve_chunk(
        self, conn: _Connection, decoder: protocol.FrameDecoder, data: bytes
    ) -> None:
        """Decode one transport chunk; serve its frames.

        This is where pipelining pays: every frame eligible for the
        lock-free lane (reads/queries outside a transaction, plain
        pings) is executed *synchronously* -- no task, no executor hop --
        and its response appended to one buffer, so a burst of N
        pipelined reads costs one socket write instead of N.  Stateful
        frames fan out to tasks as before and complete out of order.
        """
        out = bytearray()
        served = errors = snap_reads = 0
        for opcode, cid, payload in decoder.feed(data):
            if opcode == OP_HEALTH:
                # Heartbeats answer inline, even mid-drain: liveness
                # probing must not queue behind the work it is probing.
                protocol.build_frame_into(
                    out, RESP_OK, cid, self._health_payload()
                )
                served += 1
                continue
            inline = self._try_inline(conn, opcode, cid, payload, out)
            if inline is None:
                rejection = self._admit(conn, opcode)
                if rejection is not None:
                    protocol.build_frame_into(
                        out, RESP_ERR, cid, protocol.error_payload(rejection)
                    )
                    served += 1
                    errors += 1
                    continue
                self._dispatch(conn, opcode, cid, payload)
                continue
            served += 1
            ok, was_read = inline
            errors += not ok
            snap_reads += was_read
        if served:
            self.stats.inline_batch(
                served, errors, snap_reads, conn.inflight + served, len(out)
            )
        if out and not conn.writer.is_closing():
            async with conn.write_lock:
                conn.writer.write(out)  # fresh buffer per chunk: no copy
                await self._drain_or_drop(conn)

    def _admit(self, conn: _Connection, opcode: int) -> Exception | None:
        """Admission control for the stateful lane.

        Returns the rejection to send (or None to admit).  Rejections
        happen *before* dispatch, so a shed request provably never
        executed -- the client may always retry it.
        """
        if (
            self._draining
            and opcode in _MUTATING_OPS
            and conn.session.txn is None
        ):
            with self.stats._lock:
                self.stats.drain_rejects += 1
            return ServerDrainingError(
                "server is draining: finishing in-flight transactions, "
                "accepting no new work"
            )
        if conn.inflight >= self._max_inflight:
            with self.stats._lock:
                self.stats.shed += 1
            return ServerOverloadedError(
                f"connection exceeded {self._max_inflight} in-flight ops; "
                "request shed before execution (safe to retry after backoff)"
            )
        return None

    def _health_payload(self) -> dict[str, Any]:
        """The OP_HEALTH response body: liveness + drain + shard health."""
        payload: dict[str, Any] = {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "connections": len(self._connections),
        }
        shard_health = getattr(self.db, "shard_health", None)
        if callable(shard_health):
            payload["shards"] = {
                str(idx): state for idx, state in shard_health().items()
            }
        return payload

    async def _drain_or_drop(self, conn: _Connection) -> None:
        """Flush ``conn``'s write buffer, bounded by the slow-client cap.

        A client that sends requests but never reads responses would
        otherwise buffer unbounded response bytes server-side; after
        ``slow_client_timeout`` seconds blocked on one flush, the
        connection is aborted (hard, no lingering FIN) and counted in
        ``net.slow_client_disconnects``.

        The timed wait (a task, a timer and two loop turns per frame) is
        only taken while the buffer is above the transport's high-water
        mark -- the one state in which ``drain`` would block at all.
        """
        transport = conn.writer.transport
        if transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[1]:
            return
        try:
            await asyncio.wait_for(
                conn.writer.drain(), self._slow_client_timeout
            )
        except asyncio.TimeoutError:
            with self.stats._lock:
                self.stats.slow_client_disconnects += 1
            transport.abort()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _try_inline(
        self, conn: _Connection, opcode: int, cid: int, payload: Any, out: bytearray
    ) -> tuple[bool, bool] | None:
        """Serve a frame on the event loop if it needs no locks and no I/O.

        Returns ``(ok, was_snapshot_read)`` when served, ``None`` when
        the frame belongs to the stateful lane.  A read pipelined behind
        a still-queued BEGIN resolves against the snapshot, not the new
        transaction -- the documented contract (clients must not
        pipeline across a transaction boundary).

        Inline reads are only safe while no pin-mutating op is in
        flight: a dispatched OP_SNAPSHOT on the executor may unpin (and
        close) the very snapshot ``session.reader()`` is about to
        touch.  ``conn.pin_ops == 0`` rules that out; otherwise the
        read is dispatched and serialized behind the snapshot op.
        """
        session = conn.session
        was_read = False
        if (
            opcode in (OP_READ, OP_QUERY)
            and session.txn is None
            and conn.pin_ops == 0
        ):
            was_read = True
        elif opcode == OP_PING and not (
            isinstance(payload, dict) and payload.get("delay")
        ):
            pass
        else:
            return None
        try:
            if was_read:
                reader = session.reader()
                result = (
                    _snap_read(reader, payload)
                    if opcode == OP_READ
                    else _do_query(reader, payload)
                )
            else:
                result = payload
            protocol.build_frame_into(out, RESP_OK, cid, result)
            return True, was_read
        except Exception as exc:  # noqa: BLE001 - goes into the envelope
            protocol.build_frame_into(
                out, RESP_ERR, cid, protocol.error_payload(exc)
            )
            return False, was_read

    def _dispatch(self, conn: _Connection, opcode: int, cid: int, payload: Any) -> None:
        conn.inflight += 1
        if opcode == OP_SNAPSHOT:
            conn.pin_ops += 1
        self.stats.request_started(conn.inflight)
        task = asyncio.get_running_loop().create_task(
            self._run_request(conn, opcode, cid, payload)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    async def _run_request(
        self, conn: _Connection, opcode: int, cid: int, payload: Any
    ) -> None:
        ok = True
        try:
            result = await self._execute(conn, opcode, payload)
        except asyncio.CancelledError:
            conn.inflight -= 1
            if opcode == OP_SNAPSHOT:
                conn.pin_ops -= 1
            self.stats.request_finished(ok=False)
            raise
        except BaseException as exc:  # noqa: BLE001 - goes into the envelope
            ok = False
            result = protocol.error_payload(exc)
        conn.inflight -= 1
        if opcode == OP_SNAPSHOT:
            conn.pin_ops -= 1
        self.stats.request_finished(ok)
        await self._send(conn, RESP_OK if ok else RESP_ERR, cid, result)

    async def _send(self, conn: _Connection, opcode: int, cid: int, payload: Any) -> None:
        try:
            frame = protocol.build_frame(opcode, cid, payload)
        except Exception as exc:  # unencodable result: report, don't die
            frame = protocol.build_frame(
                RESP_ERR, cid, protocol.error_payload(exc)
            )
        async with conn.write_lock:
            if conn.writer.is_closing():
                return
            conn.writer.write(frame)
            with self.stats._lock:
                self.stats.bytes_out += len(frame)
            await self._drain_or_drop(conn)

    # -- request execution ---------------------------------------------------

    async def _execute(self, conn: _Connection, opcode: int, payload: Any) -> Any:
        session = conn.session
        if opcode == OP_PING:
            delay = payload.get("delay", 0) if isinstance(payload, dict) else 0
            if delay:
                await asyncio.sleep(float(delay))
            return payload
        if opcode == OP_STATS:
            return _plain_stats(self.db.stats())
        if opcode in (OP_READ, OP_QUERY) and session.txn is None:
            # Lock-free lane: resolve against the session's pinned
            # snapshot (re-pinned only when publication advanced).  Pure
            # CPU work with no locks and no blocking I/O, so it runs
            # inline on the event loop -- no executor hop, no FIFO lock,
            # out-of-order completion relative to slower stateful ops.
            with self.stats._lock:
                self.stats.snapshot_reads += 1
            if conn.pin_ops == 0:
                reader = session.reader()
                if opcode == OP_READ:
                    return _do_read(reader, payload)
                return _do_query(reader, payload)
            # An OP_SNAPSHOT is in flight on the executor and may swap or
            # close the session's pin mid-read: take the FIFO lock so this
            # read is ordered with it (still resolved on the event loop --
            # pin_ops stays non-zero until the snapshot op completes, and
            # it holds the same lock while it runs).
            async with conn.op_lock:
                reader = session.reader()
                if opcode == OP_READ:
                    return _do_read(reader, payload)
                return _do_query(reader, payload)
        # Stateful lane: FIFO per session, executed on the pool with the
        # session activated so the kernel resolves this client's txn.
        async with conn.op_lock:
            loop = asyncio.get_running_loop()
            if opcode == OP_COMMIT:
                self.stats.commit_started()
                try:
                    return await loop.run_in_executor(
                        self._executor, self._stateful, session, opcode, payload
                    )
                finally:
                    self.stats.commit_finished()
            return await loop.run_in_executor(
                self._executor, self._stateful, session, opcode, payload
            )

    def _stateful(self, session: Session, opcode: int, payload: Any) -> Any:
        db = self.db
        with session.activate():
            if opcode == OP_BEGIN:
                snapshot_reads = bool(
                    isinstance(payload, dict) and payload.get("snapshot_reads")
                )
                txn = db.begin(snapshot_reads=snapshot_reads)
                return txn.txid
            if opcode == OP_COMMIT:
                txn = db.current_transaction()
                if txn is None:
                    raise TransactionStateError("no transaction open on this session")
                txn.commit()
                return None
            if opcode == OP_ABORT:
                txn = db.current_transaction()
                if txn is None:
                    raise TransactionStateError("no transaction open on this session")
                txn.abort()
                return None
            if opcode == OP_PNEW:
                return db.pnew(payload).oid
            if opcode == OP_NEWVERSION:
                return db.newversion(_ident(payload)).vid
            if opcode == OP_PDELETE:
                db.pdelete(_ident(payload))
                return None
            if opcode == OP_WRITE:
                return _do_write(db, payload)
            if opcode == OP_READ:
                return _do_read(db, payload)
            if opcode == OP_QUERY:
                return _do_query(db, payload)
            if opcode == OP_SNAPSHOT:
                return _do_snapshot(session, payload)
            raise ProtocolError(
                f"unknown opcode 0x{opcode:02x} ({protocol.opcode_name(opcode)})"
            )


# -- op bodies ----------------------------------------------------------------


def _ident(payload: Any) -> Oid | Vid:
    if isinstance(payload, (Oid, Vid)):
        return payload
    raise ProtocolError(f"expected an Oid or Vid, got {type(payload).__name__}")


def _do_read(reader: Any, payload: Any) -> Any:
    """READ: ``(target, attr)`` -> value; ``attr=None`` materializes.

    Positional (a tuple, not a dict) because this is the hottest frame
    on the wire: two fewer key strings to encode, decode and hash per
    request.  ``reader`` is a snapshot (lock-free lane), or the database
    facade inside a transaction (2PL SHARED locks apply).
    """
    if type(payload) is not tuple or len(payload) != 2:
        raise ProtocolError("read payload must be (target, attr)")
    target, attr = payload
    if isinstance(target, Oid):
        vid = reader.latest_vid(target)
    elif isinstance(target, Vid):
        vid = target
    else:
        raise ProtocolError("read target must be an Oid or Vid")
    if attr is None:
        return reader.materialize(vid)
    value = reader.read_attr(vid, attr)
    if value is READ_MISS:
        value = getattr(reader.materialize(vid), attr)
    return value


def _snap_read(snap: Any, payload: Any) -> Any:
    """The inline lane's READ: one fused snapshot call when possible."""
    if (
        type(payload) is tuple
        and len(payload) == 2
        and type(payload[0]) is Oid
        and payload[1] is not None
    ):
        value = snap.read_latest_attr(payload[0], payload[1])
        if value is not READ_MISS:
            return value
    return _do_read(snap, payload)


def _do_write(db: Database, payload: Any) -> Any:
    """WRITE: ``(target, attr, value)``; ``attr=None`` replaces the object.

    In-place update of the target version (or the latest, when the
    target is an Oid).  With an attribute name the value is one field;
    with ``attr=None`` the value is the whole new state.
    """
    if type(payload) is not tuple or len(payload) != 3:
        raise ProtocolError("write payload must be (target, attr, value)")
    target, attr, value = payload
    if isinstance(target, Oid):
        vid = db.latest_vid(target)
    elif isinstance(target, Vid):
        vid = target
    else:
        raise ProtocolError("write target must be an Oid or Vid")
    if attr is None:
        db.write_version(vid, value)
        return None
    if not isinstance(attr, str):
        raise ProtocolError("write attr must be a string or None")
    obj = db.materialize(vid)
    setattr(obj, attr, value)
    db.write_version(vid, obj)
    return None


def _do_query(reader: Any, payload: Any) -> list[Oid]:
    """QUERY: ``(type_name, where)`` -> [Oid]; ``where=(attr, value)|None``.

    A cluster scan with an optional equality filter, evaluated on the
    server so only matching oids travel back.
    """
    if type(payload) is not tuple or len(payload) != 2:
        raise ProtocolError("query payload must be (type_name, where)")
    type_name, where = payload
    query = reader.query(type_name)
    if where is not None:
        attr, value = where
        query = query.suchthat(lambda o: getattr(o, attr, None) == value)
    return [ref.oid for ref in query]


def _do_snapshot(session: Session, payload: Any) -> Any:
    """SNAPSHOT: {"pin": bool} -> epoch|None.

    Pinning (or re-pinning) makes the snapshot the session's default
    read context: subsequent reads outside a transaction are lock-free
    against that epoch.  ``{"pin": False}`` releases it.
    """
    pin = True
    if isinstance(payload, dict):
        pin = bool(payload.get("pin", True))
    if pin:
        return session.pin().epoch
    session.unpin()
    return None


def _plain_stats(stats: dict[str, Any]) -> dict[str, Any]:
    """db.stats() filtered to codec-safe scalars (drops exotic values)."""
    out: dict[str, Any] = {}
    for key, value in stats.items():
        if isinstance(value, (bool, int, float, str, bytes)) or value is None:
            out[key] = value
    return out


# -- synchronous embedding ----------------------------------------------------


class ServerThread:
    """Run an :class:`OdeServer` on a private event loop in a thread.

    The embedding for synchronous callers (the stress harness, the swarm
    bench, tests)::

        with ServerThread(db) as handle:
            ...connect clients to ("127.0.0.1", handle.port)...

    The thread owns the loop; ``stop()`` (or the ``with`` exit) closes
    the server there and joins the thread.
    """

    def __init__(self, db: Database, **server_kwargs: Any) -> None:
        self._server = OdeServer(db, **server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def server(self) -> OdeServer:
        return self._server

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def host(self) -> str:
        return self._server.host

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="ode-server-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise NetworkError(
                f"server failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        stop = loop.create_future()
        self._stop_future = stop

        async def main() -> None:
            try:
                await self._server.start()
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            try:
                await stop
            finally:
                await self._server.close()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def drain(self, timeout: float = 30.0) -> None:
        """Gracefully drain the server, then join the thread.

        Synchronous wrapper over :meth:`OdeServer.drain`: stops
        accepting, lets in-flight transactions finish (bounded by
        ``timeout``), then shuts the loop down.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(
            self._server.drain(timeout), loop
        )
        try:
            future.result(timeout + 10)
        finally:
            self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        thread = self._thread
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(
                lambda: self._stop_future.done()
                or self._stop_future.set_result(None)
            )
        if thread is None or not thread.is_alive():
            return
        thread.join(timeout=timeout)
        if thread.is_alive():
            # A silent return here would leak a wedged daemon thread (and
            # a bound port, and an open database) while the caller
            # believes the server is gone.  Fail loudly instead.
            raise NetworkError(
                f"server thread did not stop within {timeout:g}s -- the "
                "event loop is wedged (a stuck handler or executor job); "
                "the daemon thread and its database remain alive"
            )

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
