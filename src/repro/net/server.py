"""Asyncio server: the database kernel behind a pipelined socket API.

One :class:`OdeServer` wraps one open :class:`~repro.core.database.
Database`.  Each accepted connection gets its own
:class:`~repro.core.session.Session`; frames are decoded as they arrive
and responses carry the request's correlation id, so a pipelining
client may see them complete out of order across lanes.

Three execution lanes, chosen per frame:

* **Inline, if idle.**  A frame that needs no locks and no I/O is served
  directly on the event loop, its response appended to the chunk's one
  output buffer: health checks and plain pings always (they touch no
  session state); a plain ``BEGIN`` only while the connection's lane is
  idle; reads and queries outside a transaction (the session's pinned
  snapshot, :meth:`Session.reader`) unless a frame that decides what
  they see -- ``BEGIN``/``COMMIT``/``ABORT``, a pin change, an earlier
  read -- is still on the lane.  They may overtake the session's own
  autocommit writes and ``STATS``, as they always could.
* **The lane.**  Everything else -- writes, commits, reads inside a
  transaction or behind one, snapshot pin/unpin, ``STATS`` -- is
  appended to the connection's FIFO deque.  One runner on the worker
  pool activates the session once, drains the deque in order, encodes
  the responses off the loop and posts them back by
  ``call_soon_threadsafe``: an awaited frame costs one thread hop, a
  pipelined ``BEGIN/WRITE/.../COMMIT`` burst one worker wake-up and one
  socket write.  Acks are batched only inside an open transaction: what
  has accumulated is posted whenever the session is outside one, so a
  COMMIT's ack never waits on a follower that blocks.  One client's
  frames execute in the order sent; different sessions run in parallel.
  Disconnect is the lane's last item: frames still queued are dropped
  unexecuted, then the session closes (aborting its open transaction).
* **A loop task** -- ``PING`` with a ``delay`` only (a load-shedding
  probe that sleeps on the loop without occupying a worker).

Commits block in the pool on the WAL flush; many sessions' lanes run
there concurrently, so they ride the WAL's group-commit window (one
fsync per group, measured by ``wal.group_piggybacks``).
``net.commits_overlapped`` counts commits that found another already in
flight, i.e. the grouping opportunity the server actually created.

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
from collections import deque
from contextlib import ExitStack
from concurrent.futures import Future, ThreadPoolExecutor
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

#: Default worker threads.  A lane run holds one while it drains its
#: session's frames, blocking on locks/fsync; a few times the CPU count
#: keeps commits grouping without letting lock waiters starve the pool.
DEFAULT_WORKERS = 16

#: Default bound on queued-or-executing ops per connection.  A client
#: pipelining past this gets :class:`ServerOverloadedError` rejections
#: (the request never executes) instead of growing its lane without
#: limit.
DEFAULT_MAX_INFLIGHT = 128

#: Default seconds a response write may sit blocked on a client that is
#: not reading before the connection is forcibly dropped.
DEFAULT_SLOW_CLIENT_TIMEOUT = 30.0

#: Opcodes that start new work on the database.  While draining these
#: are refused for sessions with no open transaction -- in-flight
#: transactions get to finish, new ones are turned away.
_MUTATING_OPS = frozenset({OP_BEGIN, OP_PNEW, OP_NEWVERSION, OP_PDELETE, OP_WRITE})

_READ_OPS = (OP_READ, OP_QUERY)

#: Lane frames a read outside a transaction may overtake: the session's
#: own autocommit mutations and STATS.  Every other lane frame decides
#: what a later read sees and holds it in line.
_PASSABLE = frozenset({OP_PNEW, OP_NEWVERSION, OP_PDELETE, OP_WRITE, OP_STATS})

_READ_CHUNK = 256 * 1024

#: The lane's last item, appended at disconnect: close the session.
_CLOSE = object()


class _NetStats:
    """``net.*`` counters, shared across connections (lock-guarded).

    Every public attribute is a counter or gauge, reported as
    ``net.<name>``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._commits_inflight = 0
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
        #: Requests rejected by admission control (never executed).
        self.shed = 0
        #: Requests refused because the server is draining.
        self.drain_rejects = 0
        #: Gauge: 1 while the server is draining (or drained).
        self.draining = 0
        #: Connections force-dropped for not reading their responses.
        self.slow_client_disconnects = 0
        #: Lane runs that executed a frame (one worker wake-up each), the
        #: frames executed, and the frames dropped unexecuted at disconnect.
        self.lane_runs = 0
        self.lane_frames = 0
        self.lane_dropped = 0

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            out = {f"net.{k}": v for k, v in vars(self).items() if k[0] != "_"}
        # In-process client-side counters (stress/chaos run clients and
        # server in one process): deadline expiries and pool reconnects.
        out.update(local_client_stats())
        return out

    def add(self, depth: int = 0, **deltas: int) -> None:
        """Apply counter deltas under one lock acquisition.

        A read chunk and a lane run each account all their frames with
        one call, not one per request.  ``depth`` raises ``pipeline_max``.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
            if depth > self.pipeline_max:
                self.pipeline_max = depth

    def commit_started(self) -> None:
        with self._lock:
            self.commits += 1
            self.commits_overlapped += self._commits_inflight > 0
            self._commits_inflight += 1


class _Connection:
    """Per-connection state: the session, its FIFO lane, delay-ping tasks."""

    def __init__(self, session: Session, writer: asyncio.StreamWriter) -> None:
        self.session = session
        self.writer = writer
        #: ``(opcode, cid, payload)``: appended by the event loop, popped
        #: in order by the one runner on a pool thread.
        self.lane: deque[Any] = deque()
        #: From a runner's submission until its completion callback finds
        #: the deque empty (event-loop thread only).
        self.lane_active = False
        #: Lane frames not in ``_PASSABLE``, queued or not yet answered.
        self.ordered = 0
        #: Set at disconnect: frames still queued are dropped unexecuted.
        self.dead = False
        #: Resolved once the lane has run its final item (session close).
        self.closed: asyncio.Future[None] = asyncio.get_running_loop().create_future()
        self.tasks: set[asyncio.Task] = set()  # delay-pings only
        #: Frames queued or executing on the lane, plus live delay-pings.
        self.inflight = 0
        #: The pending slow-client watchdog (see ``_write``), or None.
        self.flush: asyncio.Task | None = None


class OdeServer:
    """Serve one database over the binary wire protocol.

    Parameters
    ----------
    db:
        The open database to expose.
    host, port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    workers:
        Worker threads for the connections' lane runs.
    max_frame:
        Reject incoming frames declaring more than this many bytes
        (a clean error frame, then disconnect).
    max_inflight:
        Admission control: per-connection cap on queued-or-executing
        lane frames (and delay-pings).  Beyond it, requests are rejected with
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
        self._loop: asyncio.AbstractEventLoop | None = None
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
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(self._workers, thread_name_prefix="ode-net")
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
        self.stats.add(draining=1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if not any(
                c.inflight or c.session.txn is not None for c in self._connections
            ):
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
        task = asyncio.current_task()  # start_server runs handlers as tasks
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        peer = writer.get_extra_info("peername")
        if self._write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(high=self._write_buffer_limit)
        session = self.db.session(name=f"net-{peer}")
        session.context["peer"] = peer
        conn = _Connection(session, writer)
        self._connections.add(conn)
        self.stats.add(connections=1, connections_total=1, sessions=1)
        decoder = protocol.FrameDecoder(self._max_frame)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break  # EOF: client went away (possibly mid-frame)
                self._serve_chunk(conn, decoder, data)
                if conn.flush is not None:
                    # Backpressure: read no more from a peer that is not
                    # reading until its responses drain (or it is dropped).
                    await conn.flush
        except ProtocolError as exc:
            # Bad magic / oversized / malformed: tell the client why,
            # then hang up.  cid 0 marks a connection-level error.
            frame = protocol.build_frame(RESP_ERR, 0, protocol.error_payload(exc))
            self._write(conn, frame)
            self.stats.add(errors=1, bytes_out=len(frame))
        except (ConnectionResetError, asyncio.CancelledError):
            pass  # a routine disconnect, or close() cancelling a straggler
        finally:
            await self._teardown(conn)

    async def _teardown(self, conn: _Connection) -> None:
        """Disconnect path: drop queued work, close the session *on the lane*.

        Close is the lane's final item, so it runs after the op in flight
        has returned, never beside it: ``Session.close`` aborts the
        abandoned transaction, unpins, and deregisters from the database.
        """
        self._connections.discard(conn)
        conn.dead = True
        for task in list(conn.tasks):
            task.cancel()
        if conn.flush is not None:
            conn.flush.cancel()
        if conn.tasks:
            await asyncio.gather(*conn.tasks, return_exceptions=True)
        conn.lane.append(_CLOSE)
        if not conn.lane_active:
            self._arm(conn)
        await conn.closed
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self.stats.add(connections=-1, sessions=-1)

    def _serve_chunk(
        self, conn: _Connection, decoder: protocol.FrameDecoder, data: bytes
    ) -> None:
        """Decode one transport chunk; serve or queue its frames.

        This is where pipelining pays: inline frames run synchronously
        and share one response buffer, so N pipelined reads cost one
        socket write; lane frames are all queued before the runner is
        armed, so N stateful frames cost one worker wake-up.
        """
        out = bytearray()
        served = errors = snap_reads = queued = 0
        lane = conn.lane
        frames = list(decoder.feed(data))
        final = len(frames) - 1
        for at, (opcode, cid, payload) in enumerate(frames):
            inline = self._try_inline(conn, opcode, cid, payload, out, at == final)
            if inline is not None:
                served += 1
                ok, was_read = inline
                errors += not ok
                snap_reads += was_read
                continue
            rejection = self._admit(conn, opcode)
            if rejection is not None:
                _error_frame_into(out, cid, rejection)
                served += 1
                errors += 1
                continue
            conn.inflight += 1
            queued += 1
            if opcode == OP_PING:  # only one with a delay gets this far
                task = self._loop.create_task(self._delay_ping(conn, cid, payload))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
            else:
                lane.append((opcode, cid, payload))
                conn.ordered += opcode not in _PASSABLE
        self.stats.add(
            conn.inflight + served,
            requests=served + queued,
            inflight=queued,
            responses=served,
            errors=errors,
            snapshot_reads=snap_reads,
            bytes_in=len(data),
            bytes_out=len(out),
        )
        if out:
            self._write(conn, out)  # fresh buffer per chunk: no copy
        if lane and not conn.lane_active:
            # Arm once the chunks that are ready now have all been served:
            # a worker woken here would take the interpreter from the loop
            # while other connections' inline reads are still waiting.
            conn.lane_active = True
            self._loop.call_soon(self._arm, conn)

    def _admit(self, conn: _Connection, opcode: int) -> Exception | None:
        """Admission control for the lane.

        Returns the rejection to send (or None to admit).  Rejections
        happen *before* the frame is queued, so a shed request provably
        never executed -- the client may always retry it.
        """
        if self._draining and opcode in _MUTATING_OPS and conn.session.txn is None:
            self.stats.add(drain_rejects=1)
            return ServerDrainingError(
                "server is draining: finishing in-flight transactions, "
                "accepting no new work"
            )
        if conn.inflight >= self._max_inflight:
            self.stats.add(shed=1)
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
            payload["shards"] = {str(i): s for i, s in shard_health().items()}
        return payload

    def _write(self, conn: _Connection, buf: bytes | bytearray) -> None:
        """Hand ``buf`` to the transport (event-loop thread only).

        A client that sends requests but never reads responses must not
        buffer unbounded bytes server-side: past the transport's
        high-water mark -- the one state in which ``drain`` would block
        -- a watchdog bounds the flush, and the reader waits on it.
        """
        if conn.writer.is_closing():
            return
        conn.writer.write(buf)
        transport = conn.writer.transport
        if (
            conn.flush is None
            and transport.get_write_buffer_size()
            > transport.get_write_buffer_limits()[1]
        ):
            conn.flush = self._loop.create_task(self._drain_or_drop(conn))

    async def _drain_or_drop(self, conn: _Connection) -> None:
        """Flush ``conn``'s write buffer; after ``slow_client_timeout``
        seconds blocked, abort the connection (hard, no lingering FIN)."""
        try:
            await asyncio.wait_for(conn.writer.drain(), self._slow_client_timeout)
        except asyncio.TimeoutError:
            self.stats.add(slow_client_disconnects=1)
            conn.writer.transport.abort()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            conn.flush = None

    def _try_inline(
        self, conn: _Connection, opcode: int, cid: int, payload: Any,
        out: bytearray, final: bool,
    ) -> tuple[bool, bool] | None:
        """Serve a frame on the event loop if it needs no locks and no I/O.

        Returns ``(ok, was_snapshot_read)`` when served, ``None`` when
        the frame belongs to the lane (see the module docstring).
        BEGIN qualifies only as the ``final`` frame of its chunk -- what
        follows it needs the lane anyway, and the burst kept together
        costs one wake-up and one socket write -- and never with
        ``snapshot_reads``: a global cut can wait on the 2PC cut latch.
        """
        session = conn.session
        was_read = False
        if opcode == OP_PING:
            if isinstance(payload, dict) and payload.get("delay"):
                return None
        elif opcode == OP_HEALTH:
            # Heartbeats answer even mid-drain, and never queue behind
            # the work they are probing.
            payload = self._health_payload()
        elif opcode in _READ_OPS:
            # An autocommit write running on the lane shows as a transient
            # txn: the read then queues behind it, which is always safe.
            if conn.ordered or session.txn is not None:
                return None
            was_read = True
        elif opcode != OP_BEGIN or not final or conn.lane or conn.lane_active:
            return None
        elif self._draining or _snapshot_reads(payload):
            return None
        try:
            if opcode == OP_READ:
                result = _snap_read(session.reader(), payload)
            elif opcode == OP_QUERY:
                result = _do_query(session.reader(), payload)
            elif opcode == OP_BEGIN:
                with session.activate():
                    result = self.db.begin().txid
            else:
                result = payload
            protocol.build_frame_into(out, RESP_OK, cid, result)
            return True, was_read
        except Exception as exc:  # noqa: BLE001 - goes into the envelope
            _error_frame_into(out, cid, exc)
            return False, was_read

    async def _delay_ping(self, conn: _Connection, cid: int, payload: Any) -> None:
        """PING with a delay: the one frame served by a loop task."""
        out = bytearray()
        ok = False
        try:
            await asyncio.sleep(float(payload["delay"]))
            protocol.build_frame_into(out, RESP_OK, cid, payload)
            ok = True
        except Exception as exc:  # noqa: BLE001 - goes into the envelope
            _error_frame_into(out, cid, exc)
        finally:  # cancelled at disconnect too: no response, still accounted
            conn.inflight -= 1
            self.stats.add(
                inflight=-1, responses=1, errors=not ok, bytes_out=len(out)
            )
        self._write(conn, out)

    # -- the lane ------------------------------------------------------------

    def _arm(self, conn: _Connection) -> None:
        """Start one lane run (event-loop thread, no runner live)."""
        conn.lane_active = True
        try:
            run = self._executor.submit(self._run_lane, conn)
            run.add_done_callback(Future.result)  # an escaped error is logged
        except RuntimeError:  # pool shut down under a straggler: close here
            self._run_lane(conn)

    def _run_lane(self, conn: _Connection) -> None:
        """One lane run, on a pool thread: drain the deque in order, under
        one activation, posting each batch of responses to the loop."""
        refusal: SessionStateError | None = None
        first = True
        with ExitStack() as active:
            try:
                active.enter_context(conn.session.activate())
            except SessionStateError as exc:
                # The database closed the session under the server:
                # what is queued answers with that, unexecuted.
                refusal = exc
            while True:
                *batch, closing = self._run_batch(conn, refusal, first)
                if closing or not conn.lane:
                    break
                self._post(conn, *batch, False, False)
                first = False
        # The last post follows deactivation: it lets the next run start.
        try:
            if closing:
                conn.session.close()
        finally:
            self._post(conn, *batch, True, closing)

    def _post(self, conn: _Connection, *batch: Any) -> None:
        try:
            self._loop.call_soon_threadsafe(self._lane_done, conn, *batch)
        except RuntimeError:
            pass  # the loop is gone (server thread stopped mid-run)

    def _run_batch(
        self, conn: _Connection, refusal: SessionStateError | None, first: bool
    ) -> tuple[bytearray, int, int, bool]:
        """Execute lane frames up to the next ack that must not wait.

        Responses are encoded here, off the loop, into one buffer.  Inside
        a transaction they accumulate, so a pipelined BEGIN/.../COMMIT is
        one socket write.  The batch ends once the session is outside a
        transaction (after a COMMIT, an autocommit write): the next frame
        may block on a lock, and the ack of durable work must not sit
        behind it.  Returns ``(out, frames finished, of them ordered,
        closing)``.
        """
        out = bytearray()
        served = errors = snap_reads = dropped = ordered = 0
        closing = False
        lane, session = conn.lane, conn.session
        while lane:  # only this thread pops
            frame = lane.popleft()
            if frame is _CLOSE:
                closing = True
                break
            if conn.dead:
                dropped += 1
                continue
            opcode, cid, payload = frame
            served += 1
            ordered += opcode not in _PASSABLE
            try:
                if refusal is not None:
                    raise refusal
                snap_reads += opcode in _READ_OPS and session.txn is None
                result = self._stateful(session, opcode, payload)
                protocol.build_frame_into(out, RESP_OK, cid, result)
            except BaseException as exc:  # noqa: BLE001 - enveloped
                errors += 1
                _error_frame_into(out, cid, exc)
            if session.txn is None:
                break
        self.stats.add(
            lane_runs=first and served > 0,
            lane_frames=served,
            lane_dropped=dropped,
            inflight=-(served + dropped),
            responses=served,
            errors=errors,
            snapshot_reads=snap_reads,
            bytes_out=len(out),
        )
        return out, served + dropped, ordered, closing

    def _lane_done(
        self, conn: _Connection, out: bytearray, finished: int, ordered: int,
        over: bool, closing: bool,
    ) -> None:
        """A batch ended: write its responses; once the run is ``over``,
        re-arm for frames that came meanwhile."""
        conn.inflight -= finished
        conn.ordered -= ordered
        if out:
            self._write(conn, out)
        if closing:
            # The lane stays marked active: nothing runs after close.
            if not conn.closed.done():
                conn.closed.set_result(None)
        elif over and conn.lane:
            self._arm(conn)
        elif over:
            conn.lane_active = False

    # -- request execution ---------------------------------------------------

    def _stateful(self, session: Session, opcode: int, payload: Any) -> Any:
        """Execute one lane frame (pool thread, session activated)."""
        db = self.db
        if opcode == OP_BEGIN:
            return db.begin(snapshot_reads=_snapshot_reads(payload)).txid
        if opcode == OP_COMMIT or opcode == OP_ABORT:
            txn = db.current_transaction()
            if txn is None:
                raise TransactionStateError("no transaction open on this session")
            if opcode == OP_ABORT:
                txn.abort()
                return None
            self.stats.commit_started()
            try:
                txn.commit()
                return None
            finally:
                self.stats.add(_commits_inflight=-1)
        if opcode == OP_PNEW:
            return db.pnew(payload).oid
        if opcode == OP_NEWVERSION:
            return db.newversion(_ident(payload)).vid
        if opcode == OP_PDELETE:
            db.pdelete(_ident(payload))
            return None
        if opcode == OP_WRITE:
            return _do_write(db, payload)
        if opcode in _READ_OPS:
            # Inside a transaction the facade (2PL SHARED locks); outside
            # one -- queued behind lane work -- the snapshot, zero locks.
            source = db if session.txn is not None else session.reader()
            return (_do_read if opcode == OP_READ else _do_query)(source, payload)
        if opcode == OP_SNAPSHOT:
            return _do_snapshot(session, payload)
        if opcode == OP_STATS:
            # Off the loop: on a sharded database this is a blocking
            # scatter over the shard executor plus per-shard locks.
            return _plain_stats(db.stats())
        raise ProtocolError(
            f"unknown opcode 0x{opcode:02x} ({protocol.opcode_name(opcode)})"
        )


# -- op bodies ----------------------------------------------------------------


def _error_frame_into(out: bytearray, cid: int, exc: BaseException) -> None:
    protocol.build_frame_into(out, RESP_ERR, cid, protocol.error_payload(exc))


def _snapshot_reads(payload: Any) -> bool:
    """Does this BEGIN payload ask for a snapshot-read transaction?"""
    return bool(isinstance(payload, dict) and payload.get("snapshot_reads"))


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
    if not isinstance(payload, dict) or payload.get("pin", True):
        return session.pin().epoch
    session.unpin()
    return None


def _plain_stats(stats: dict[str, Any]) -> dict[str, Any]:
    """db.stats() filtered to codec-safe scalars (drops exotic values)."""
    return {
        key: value
        for key, value in stats.items()
        if value is None or isinstance(value, (bool, int, float, str, bytes))
    }


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
