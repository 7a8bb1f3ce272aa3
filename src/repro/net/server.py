"""Reactor server: the database kernel behind a pipelined socket API.

One :class:`OdeServer` wraps one open :class:`~repro.core.database.
Database`.  Each accepted connection gets its own
:class:`~repro.core.session.Session`; responses carry the request's
correlation id, so a pipelining client may see them complete out of
order across lanes.  (Contract: docs/API.md, "Network service"; the
design and its measurements: DESIGN.md, "One hop per wire frame".)

**One reactor thread** owns the listener and every socket (non-blocking,
one ``selectors`` loop): it accepts, reads, decodes, and picks a lane
per frame.  Threads: 1 + at most ``workers``, whatever the connection
count.

* **Inline, if idle** -- served on the reactor, the chunk's answers in
  one buffer: health checks and pings always; reads and queries outside
  a transaction (the session's pinned snapshot) unless a frame that
  decides what they see is still on the lane.
* **The lane** -- everything else joins the connection's FIFO deque.
  One runner on the worker pool activates the session once, drains the
  deque in order, and writes the responses to the socket itself: one
  thread hop per awaited frame, one wake-up and one socket write per
  pipelined ``BEGIN/.../COMMIT`` burst.  Acks are batched only inside an
  open transaction, so a COMMIT's ack never waits on a follower that
  blocks.  A write that fails inside a transaction dooms it, and a
  BEGIN that is refused or fails dooms the frames behind it (see
  ``_run_batch``).  Disconnect is the lane's last item: frames still
  queued are dropped unexecuted, then the session closes (aborting its
  open txn).

Response bytes the kernel will not take are parked per connection; the
reactor then watches that socket for writability *instead of* reading
from it, and drops it after ``slow_client_timeout``.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import threading
import time
import traceback
from collections import deque
from contextlib import ExitStack, suppress
from queue import SimpleQueue
from typing import Any, Callable

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

_WRITE_OPS = frozenset({OP_PNEW, OP_NEWVERSION, OP_PDELETE, OP_WRITE})
_ENDS = (OP_COMMIT, OP_ABORT)

#: Opcodes that start new work on the database.  While draining these
#: are refused for sessions with no open transaction -- in-flight
#: transactions get to finish, new ones are turned away.
_MUTATING_OPS = _WRITE_OPS | {OP_BEGIN}

_READ_OPS = (OP_READ, OP_QUERY)

#: Lane frames a read outside a transaction may overtake: the session's
#: own autocommit mutations and STATS.  Every other lane frame decides
#: what a later read sees and holds it in line.
_PASSABLE = frozenset({OP_PNEW, OP_NEWVERSION, OP_PDELETE, OP_WRITE, OP_STATS})

#: Under malloc's mmap threshold: a 256 KiB ``recv`` buffer is mapped and
#: unmapped on every call (13 us of a 120 us round trip, measured: E25).
_READ_CHUNK = 64 * 1024

#: The lane's last item, appended at disconnect: close the session.
_CLOSE = object()

_now = time.monotonic


class _NetStats:
    """``net.*`` counters, shared across connections (lock-guarded): every
    public attribute is a counter or gauge, reported as ``net.<name>``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._commits_inflight = 0
        self.connections = self.connections_total = self.sessions = 0
        self.inflight = self.pipeline_max = 0
        #: ``reads``: reactor ``recv`` calls that returned data (frames per read).
        self.requests = self.responses = self.errors = self.reads = 0
        self.bytes_in = self.bytes_out = 0
        #: Reads served from a snapshot (no locks); commits, and those
        #: that found another already in flight (the grouping created).
        self.snapshot_reads = self.commits = self.commits_overlapped = 0
        #: Requests rejected by admission control (never executed).
        self.shed = 0
        #: Requests refused because the server is draining.
        self.drain_rejects = 0
        #: Gauge: 1 while the server is draining (or drained).
        self.draining = 0
        #: Connections force-dropped for not reading their responses.
        self.slow_client_disconnects = 0
        #: Sends the kernel did not take whole (the rest was parked).
        self.write_backlogs = 0
        #: Lane runs that executed a frame (one session activation each), the
        #: frames executed, and the frames dropped unexecuted at disconnect.
        self.lane_runs = self.lane_frames = self.lane_dropped = 0
        #: Gauge: the longest the reactor went from one ``select()`` to the
        #: next -- blocking work on the thread all connections share.
        self.reactor_max_busy_ms = 0.0

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            out = {f"net.{k}": v for k, v in vars(self).items() if k[0] != "_"}
        # In-process client-side counters (stress/chaos run clients and
        # server in one process): deadline expiries and pool reconnects.
        out.update(local_client_stats())
        return out

    def add(self, depth: int = 0, **deltas: int) -> None:
        """Apply counter deltas under one lock acquisition: a read chunk
        and a lane run each account all their frames with one call, not
        one per request.  ``depth`` raises ``pipeline_max``."""
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
    """Per-connection state: the socket, the session, its FIFO lane."""

    def __init__(self, sock: socket.socket, session: Session) -> None:
        self.sock = sock
        self.session = session
        self.decoder = protocol.FrameDecoder()
        #: ``(opcode, cid, payload)``: appended by the reactor, popped in
        #: order by the one runner on a pool thread.
        self.lane: deque[Any] = deque()
        #: Guards the next three: reactor and runner both update them.
        self.lock = threading.Lock()
        #: From the reactor's hand-off until the runner, its session
        #: deactivated, finds the deque empty.
        self.lane_active = False
        #: Lane frames not in ``_PASSABLE``, queued or not yet answered.
        self.ordered = 0
        #: Frames queued or executing on the lane.
        self.inflight = 0
        #: One writer on the socket at a time (reactor or runner); guards
        #: the next two.  Taken after ``lock``, never before.
        self.send_lock = threading.Lock()
        self.outbuf = bytearray()  # bytes the kernel has not taken yet
        self.dead = False  # disconnected, socket closed: drop, discard
        #: Reactor only: since when it has watched the socket for
        #: writability instead of reading from it (None: reading).
        self.stalled_since: float | None = None
        #: The error of a failed BEGIN, or of a write in the open transaction.
        self.doomed: BaseException | None = None
        #: The cid of the BEGIN that opened the session's transaction: its
        #: replay (a duplicated chunk) fails without dooming anything.
        self.begun = 0
        #: cid -> Vid of each NEWVERSION the open transaction answered.
        self.promised: dict[int, Vid] = {}


class OdeServer:
    """Serve one database over the binary wire protocol.

    Parameters
    ----------
    db:
        The open database to expose.
    host, port:
        Listen address; ``port=0`` picks a free port (see :attr:`port`).
    workers:
        Upper bound on worker threads (started on demand).  A lane run
        holds one while it blocks on locks/fsync; a few times the CPU
        count keeps commits grouping without lock waiters starving it.
    max_inflight:
        Admission control: per-connection cap on queued-or-executing
        lane frames.  Beyond it, requests are rejected
        with :class:`ServerOverloadedError` *before* execution (always
        safe to retry), but one slot more is kept for a COMMIT or ABORT.
        Health checks report it (``OdeConnection`` stays within it).
    slow_client_timeout:
        Seconds response bytes may sit unsent on an unread socket before
        the connection is dropped (a client that never reads must not
        hold server memory).
    write_buffer_limit:
        Optional ``SO_SNDBUF`` for accepted sockets, in bytes; tests set
        it low to reach the slow-client path with kilobytes of backlog.
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 16,
        max_inflight: int = 128,
        slow_client_timeout: float = 30.0,
        write_buffer_limit: int | None = None,
    ) -> None:
        self.db = db
        self.host = host
        #: As asked for until :meth:`start` binds; then the bound port.
        self.port = port
        self._max_workers = workers
        self._max_inflight = max_inflight
        self._slow_client_timeout = slow_client_timeout
        self._write_buffer_limit = write_buffer_limit
        self.stats = _NetStats()
        self._thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._closed = False
        #: True once :meth:`drain` has started (sticky until close).
        self.draining = False
        # The reactor's; other threads reach it only through ``_post``.
        self._calls: deque[tuple[Callable[..., None], tuple[Any, ...]]] = deque()
        self._timers: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._timer_ids = itertools.count()
        self._to_wake: list[_Connection] = []  # lanes to start, at round end
        self._stopping = False
        # The worker pool: threads started on demand, one hand-off queue.
        self._runs: SimpleQueue[_Connection | None] = SimpleQueue()
        self._workers: list[threading.Thread] = []
        self._pool_lock = threading.Lock()
        self._idle = 0  # workers waiting on the queue and not yet spoken for

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "OdeServer":
        """Bind, and start the reactor thread accepting connections."""
        self._listener = socket.create_server((self.host, self.port), backlog=100)
        self.port = self._listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._wake_recv, self._wake_send = socket.socketpair()
        for sock in (self._listener, self._wake_recv, self._wake_send):
            sock.setblocking(False)
        self._listen()
        self._selector.register(self._wake_recv, selectors.EVENT_READ, self._woken)
        self.db.add_stats_source(self.stats.as_dict)
        self._thread = threading.Thread(
            target=self._reactor, name="ode-net-reactor", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting, drop every connection, tear sessions down.
        Raises :class:`NetworkError` if a thread is still going after
        ``timeout`` seconds, rather than leak a wedged daemon thread (and
        an open database) behind a caller who believes the server gone."""
        if self._closed or self._thread is None:
            return
        self._closed = True
        self.db.remove_stats_source(self.stats.as_dict)
        deadline = _now() + timeout
        self._post(self._shutdown)
        self._thread.join(timeout)
        if not self._thread.is_alive():
            # Queued lane runs (the session closes) finish first.
            for worker in self._workers:
                self._runs.put(None)
            for worker in self._workers:
                worker.join(max(0.0, deadline - _now()))
        if self._thread.is_alive() or any(w.is_alive() for w in self._workers):
            raise NetworkError(
                f"server did not stop within {timeout:g}s -- the reactor or "
                "a lane run is wedged (a stuck op or stats source); the "
                "daemon thread and its database remain alive"
            )
        self._selector.close()
        self._wake_recv.close()
        self._wake_send.close()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work.

        The listening socket closes; new transactions and mutations on
        idle sessions are refused with :class:`ServerDrainingError`
        (retryable against a replacement server) while sessions with an
        *open* transaction run on to their commit; once every connection
        is quiescent -- or ``timeout`` seconds pass -- the server closes.
        Health checks answer throughout, reporting ``draining: True``.
        Blocks the caller (never the reactor) until the server is closed.
        """
        if self.draining or self._closed or self._thread is None:
            return
        self.draining = True
        self.stats.add(draining=1)
        self._post(self._stop_listening)
        deadline = _now() + timeout
        while _now() < deadline and any(
            c.inflight or c.session.txn is not None for c in list(self._connections)
        ):
            time.sleep(0.02)
        self.close()

    # -- the reactor ---------------------------------------------------------

    def _reactor(self) -> None:
        """The one thread that owns every socket: select, serve, repeat."""
        timers, calls, to_wake = self._timers, self._calls, self._to_wake
        now = _now()
        while not self._stopping:
            ready = self._selector.select(
                max(0.0, timers[0][0] - now) if timers else None
            )
            woke = _now()
            conn = None
            try:
                for key, _mask in ready:
                    conn = key.data
                    if conn.__class__ is not _Connection:
                        conn()  # the listener or the wake pipe
                    elif conn.stalled_since is None:
                        self._read(conn)
                    else:
                        self._flush(conn)
                conn = None
                while timers and timers[0][0] <= woke:
                    _when, _id, fn, args = heapq.heappop(timers)
                    fn(*args)
                while calls:
                    fn, args = calls.popleft()
                    fn(*args)
            except Exception:  # a bug, or the database closed under us: the
                traceback.print_exc()  # rest of the round comes round again
                if conn.__class__ is _Connection:
                    self._teardown(conn)
            # Workers are woken once every chunk ready now is served: one
            # woken earlier takes the interpreter from the reactor while
            # other connections' inline reads still wait.
            for conn in to_wake:
                self._submit(conn)
            to_wake.clear()
            now = _now()
            if (now - woke) * 1e3 > self.stats.reactor_max_busy_ms:
                self.stats.reactor_max_busy_ms = (now - woke) * 1e3

    def _post(self, fn: Callable[..., None], *args: Any) -> None:
        """Have the reactor call ``fn(*args)`` (from any thread)."""
        self._calls.append((fn, args))
        with suppress(OSError):  # full of wake-ups, or closed: the reactor is gone
            self._wake_send.send(b"\0")

    def _woken(self) -> None:
        with suppress(BlockingIOError):
            self._wake_recv.recv(4096)

    def _call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Reactor thread only: run ``fn(*args)`` after ``delay`` seconds."""
        heapq.heappush(self._timers, (_now() + delay, next(self._timer_ids), fn, args))

    def _listen(self) -> None:
        if self._listener.fileno() >= 0:  # else closed meanwhile (drain, close)
            self._selector.register(self._listener, selectors.EVENT_READ, self._accept)

    def _stop_listening(self) -> None:
        if self._listener.fileno() >= 0:
            with suppress(KeyError):  # sitting out a failed accept
                self._selector.unregister(self._listener)
            self._listener.close()

    def _shutdown(self) -> None:
        self._stop_listening()
        for conn in list(self._connections):
            self._teardown(conn)
        self._stopping = True

    def _submit(self, conn: _Connection) -> None:
        """Queue one lane run: claim an idle worker or start another."""
        with self._pool_lock:
            if self._idle:
                self._idle -= 1
            elif len(self._workers) < self._max_workers:
                name = f"ode-net-lane-{len(self._workers)}"
                self._workers.append(
                    threading.Thread(target=self._work, name=name, daemon=True)
                )
                self._workers[-1].start()
        self._runs.put(conn)

    def _work(self) -> None:
        while (conn := self._runs.get()) is not None:
            try:
                self._run_lane(conn)
            except Exception:  # a bug in the lane, not a request's error
                traceback.print_exc()
            with self._pool_lock:
                self._idle += 1

    # -- connection handling -------------------------------------------------

    def _accept(self) -> None:
        """The listener is readable: take every connection waiting."""
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # out of descriptors: sit out a second, not spin
                self._selector.unregister(self._listener)
                self._call_later(1.0, self._listen)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._write_buffer_limit is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self._write_buffer_limit
                )
            session = self.db.session(name=f"net-{peer}")
            session.context["peer"] = peer
            conn = _Connection(sock, session)
            self._connections.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self.stats.add(connections=1, connections_total=1, sessions=1)

    def _read(self, conn: _Connection) -> None:
        """``conn`` is readable: serve what arrived, or tear down at EOF."""
        try:
            data = conn.sock.recv(_READ_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""  # reset by the peer: a routine disconnect
        if not data:  # EOF: client went away (possibly mid-frame)
            self._teardown(conn)
            return
        try:
            self._serve_chunk(conn, data)
        except ProtocolError as exc:
            # Bad magic / oversized / malformed: tell the client why,
            # then hang up.  cid 0 marks a connection-level error.
            frame = protocol.build_frame(RESP_ERR, 0, protocol.error_payload(exc))
            self._write(conn, frame)
            self.stats.add(errors=1, bytes_out=len(frame))
            self._teardown(conn)

    def _teardown(self, conn: _Connection) -> None:
        """Disconnect: close the socket, and the session *on the lane* --
        as its final item, after the op in flight has returned, never
        beside it (``Session.close`` aborts the abandoned transaction,
        unpins, and deregisters from the database)."""
        if conn.dead:
            return
        self._connections.discard(conn)
        self._selector.unregister(conn.sock)
        with conn.send_lock:  # no write is in progress, and none will start
            conn.dead = True
            conn.outbuf = bytearray()
            conn.sock.close()
        with conn.lock:
            conn.lane.append(_CLOSE)
            if not conn.lane_active:
                conn.lane_active = True
                self._to_wake.append(conn)

    def _serve_chunk(self, conn: _Connection, data: bytes) -> None:
        """Decode one chunk off the socket; serve or queue its frames.

        This is where pipelining pays: inline frames share one response
        buffer, so N pipelined reads cost one socket write; lane frames
        are all queued before the runner is woken, so N stateful frames
        cost one worker wake-up.
        """
        out = bytearray()
        served = errors = snap_reads = queued = 0
        for opcode, cid, payload in list(conn.decoder.feed(data)):  # all or none
            inline = self._try_inline(conn, opcode, cid, payload, out)
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
                if opcode in _MUTATING_OPS:
                    self._refused(conn, opcode, rejection)
                continue
            queued += 1
            with conn.lock:
                conn.inflight += 1
                conn.lane.append((opcode, cid, payload))
                conn.ordered += opcode not in _PASSABLE
                if not conn.lane_active:  # woken at the end of the round
                    conn.lane_active = True
                    self._to_wake.append(conn)
        self.stats.add(
            conn.inflight + served,
            requests=served + queued,
            reads=1,
            inflight=queued,
            responses=served,
            errors=errors,
            snapshot_reads=snap_reads,
            bytes_in=len(data),
            bytes_out=len(out),
        )
        if out:
            self._write(conn, out)  # fresh buffer per chunk: no copy

    def _admit(self, conn: _Connection, opcode: int) -> Exception | None:
        """Admission control for the lane: the rejection to send, or None.
        A frame is refused *before* it is queued, so a shed request
        provably never executed -- the client may always retry it."""
        if self.draining and opcode in _MUTATING_OPS and conn.session.txn is None:
            self.stats.add(drain_rejects=1)
            return ServerDrainingError(
                "server is draining: finishing in-flight transactions, "
                "accepting no new work"
            )
        if conn.inflight >= self._max_inflight + (opcode in _ENDS):
            self.stats.add(shed=1)
            return ServerOverloadedError(
                f"connection exceeded {self._max_inflight} in-flight ops; "
                "request shed before execution (safe to retry after backoff)"
            )
        return None

    def _refused(self, conn: _Connection, opcode: int, error: Exception) -> None:
        """A write refused unqueued dooms the transaction open at its place
        in the lane, a BEGIN what follows it: a mark ``(None, begin,
        error)`` (ordered), one per run of like refusals.  On an idle lane
        (a drain) no transaction is open: a BEGIN's refusal dooms at once."""
        mark = (None, opcode == OP_BEGIN, error)
        with conn.lock:
            if conn.lane_active:
                if not conn.lane or conn.lane[-1][:2] != mark[:2]:
                    conn.lane.append(mark)
                    conn.ordered += 1
            elif mark[1] and conn.doomed is None:
                conn.doomed = error

    def _health_payload(self) -> dict[str, Any]:
        """The OP_HEALTH response body: liveness + drain + shard health."""
        payload: dict[str, Any] = {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "connections": len(self._connections),
            "max_inflight": self._max_inflight,
        }
        shard_health = getattr(self.db, "shard_health", None)
        if callable(shard_health):
            payload["shards"] = {str(i): s for i, s in shard_health().items()}
        return payload

    # -- writing -------------------------------------------------------------

    def _write(self, conn: _Connection, buf: bytes | bytearray) -> None:
        """Send ``buf`` to the peer, from the reactor or a lane's runner.

        What the kernel does not take is parked in ``conn.outbuf`` (later
        writes queue behind it) and the reactor stops reading from this
        peer until it drains, so a client that never reads its responses
        cannot make the server buffer without bound.
        """
        with conn.send_lock:
            if conn.dead:
                return
            parked = len(conn.outbuf)
            if not parked:
                try:
                    sent = conn.sock.send(buf)
                except (BlockingIOError, InterruptedError):
                    sent = 0
                except OSError:
                    return  # reset by the peer: the next read tears it down
                if sent == len(buf):
                    return
                buf = memoryview(buf)[sent:]
            conn.outbuf += buf
        if not parked:
            self.stats.add(write_backlogs=1)
            self._post(self._stall, conn)

    def _stall(self, conn: _Connection) -> None:
        """Unsent bytes: watch for writability, not reads, and not for long."""
        if not conn.dead:
            conn.stalled_since = since = _now()
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            self._call_later(self._slow_client_timeout, self._drop_if_stalled, conn, since)

    def _drop_if_stalled(self, conn: _Connection, since: float) -> None:
        if conn.stalled_since == since and not conn.dead:  # the same backlog
            self.stats.add(slow_client_disconnects=1)
            self._teardown(conn)

    def _flush(self, conn: _Connection) -> None:
        """A stalled socket is writable: push the backlog on, then read again."""
        with conn.send_lock:
            try:
                del conn.outbuf[: conn.sock.send(conn.outbuf)]
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                conn.outbuf.clear()  # reset by the peer: the next read sees it
            if conn.outbuf:
                return
        conn.stalled_since = None
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    # -- the inline lane -----------------------------------------------------

    def _try_inline(
        self, conn: _Connection, opcode: int, cid: int, payload: Any,
        out: bytearray,
    ) -> tuple[bool, bool] | None:
        """Serve a frame on the reactor if it needs no locks and no I/O.

        Returns ``(ok, was_snapshot_read)`` when served, ``None`` when
        the frame belongs to the lane (see the module docstring).
        """
        session = conn.session
        was_read = False
        if opcode == OP_PING:
            pass  # an echo: always inline
        elif opcode == OP_HEALTH:
            # Heartbeats answer even mid-drain, and never queue behind
            # the work they are probing.
            payload = self._health_payload()
        elif opcode in _READ_OPS:
            # An autocommit write running on the lane shows as a transient
            # txn: the read then queues behind it, which is always safe.
            if conn.ordered or session.txn is not None or conn.doomed is not None:
                return None
            was_read = True
        else:
            return None
        try:
            if opcode == OP_READ:
                result = _snap_read(session.reader(), payload)
            elif opcode == OP_QUERY:
                result = _do_query(session.reader(), payload)
            else:
                result = payload
            protocol.build_frame_into(out, RESP_OK, cid, result)
            return True, was_read
        except Exception as exc:  # noqa: BLE001 - goes into the envelope
            _error_frame_into(out, cid, exc)
            return False, was_read

    # -- the lane ------------------------------------------------------------

    def _run_lane(self, conn: _Connection) -> None:
        """Lane runs, on a pool thread, until the lane is idle.  One run
        drains the deque in order under one activation, writing each
        batch of responses to the socket."""
        while True:
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
                    self._batch_done(conn, *batch, False)
                    first = False
            if closing:  # the lane stays marked active: nothing runs after
                try:
                    conn.session.close()
                finally:
                    self.stats.add(connections=-1, sessions=-1)
                return
            if self._batch_done(conn, *batch, True):
                return
            # Frames came between the last look and the mutex: run again.

    def _batch_done(
        self, conn: _Connection, out: bytearray, finished: int, ordered: int,
        over: bool,
    ) -> bool:
        """A batch ended: settle its counts, write its responses and, if
        the run is ``over`` and no frame came meanwhile, mark the lane
        idle (returned).  All under the connection's mutex: an ack is on
        the wire only after the lane reads idle (what the client sends
        behind it starts a run of its own, every time), and the next
        run's responses cannot overtake this one's."""
        with conn.lock:
            conn.inflight -= finished
            conn.ordered -= ordered
            idle = over and not conn.lane
            if idle:
                conn.lane_active = False
            if out:
                self._write(conn, out)
        return idle

    def _run_batch(
        self, conn: _Connection, refusal: SessionStateError | None, first: bool
    ) -> tuple[bytearray, int, int, bool]:
        """Execute lane frames up to the next ack that must not wait.

        Responses are encoded into one buffer.  Inside a transaction
        they accumulate, so a pipelined BEGIN/.../COMMIT is one socket
        write.  The batch ends once the session is outside a transaction
        (after a COMMIT, an autocommit write): the next frame may block
        on a lock, and the ack of durable work must not sit behind it.
        A write that fails inside a transaction dooms it (``_doomed``), as
        does a BEGIN that fails: the COMMIT, which the client's unawaited
        BEGIN and writes ride with, reports it.  Returns ``(out, frames
        finished, of them ordered, closing)``.
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
            opcode, cid, payload = frame
            if opcode is None:  # a refused frame's place (see _refused)
                ordered += 1
                if conn.doomed is None and (cid or session.txn is not None):
                    conn.doomed = payload
                continue
            if conn.dead:
                dropped += 1
                continue
            served += 1
            ordered += opcode not in _PASSABLE
            txn = session.txn
            try:
                if refusal is not None:
                    raise refusal
                if conn.doomed is not None:
                    result = self._doomed(conn, opcode)
                else:
                    snap_reads += opcode in _READ_OPS and txn is None
                    result = self._stateful(conn, opcode, payload)
                    if opcode == OP_BEGIN:
                        conn.begun = cid
                    elif opcode == OP_NEWVERSION and txn is not None:
                        conn.promised[cid] = result
                protocol.build_frame_into(out, RESP_OK, cid, result)
            except BaseException as exc:  # noqa: BLE001 - enveloped
                errors += 1
                _error_frame_into(out, cid, exc)
                if conn.doomed is None and (
                    opcode == OP_BEGIN and cid != conn.begun
                    or txn is not None and opcode in _WRITE_OPS
                ):
                    conn.doomed = exc
            if session.txn is None:
                conn.promised.clear()  # they die with their transaction
                if conn.doomed is None:
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

    # -- request execution ---------------------------------------------------

    def _doomed(self, conn: _Connection, opcode: int) -> None:
        """A frame behind a failed BEGIN or write answers that error
        unexecuted; COMMIT and ABORT roll back (ABORT answers OK)."""
        error = conn.doomed
        if opcode in _ENDS:
            conn.doomed = None
            txn = self.db.current_transaction()
            if txn is not None:
                txn.abort()
            if opcode == OP_ABORT:
                return None
        raise error.with_traceback(None)

    def _stateful(self, conn: _Connection, opcode: int, payload: Any) -> Any:
        """Execute one lane frame (pool thread, session activated)."""
        db, session, promised = self.db, conn.session, conn.promised
        if opcode == OP_BEGIN:
            snapshot_reads = isinstance(payload, dict) and payload.get("snapshot_reads")
            return db.begin(snapshot_reads=bool(snapshot_reads)).txid
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
            return db.newversion(_ident(payload, promised, "newversion")).vid
        if opcode == OP_PDELETE:
            db.pdelete(_ident(payload, promised, "pdelete"))
            return None
        if opcode == OP_WRITE:
            return _do_write(db, payload, promised)
        if opcode in _READ_OPS:
            # Inside a transaction the facade (2PL SHARED locks); outside
            # one -- queued behind lane work -- the snapshot, zero locks.
            source = db if session.txn is not None else session.reader()
            return (_do_read(source, payload, promised) if opcode == OP_READ
                    else _do_query(source, payload))
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


def _ident(target: Any, promised: dict[int, Vid], op: str) -> Oid | Vid:
    """The frame's Oid or Vid, or for a promise ``(cid,)`` the Vid that
    NEWVERSION ``cid`` of the open transaction answered."""
    if isinstance(target, (Oid, Vid)):
        return target
    cid = target[0] if type(target) is tuple and len(target) == 1 else None
    if type(cid) is int and cid in promised:
        return promised[cid]
    raise ProtocolError(f"{op} target must be an Oid, a Vid or a promise (cid,) "
                        f"of a NEWVERSION in this transaction, got {target!r:.60}")


def _version(reader: Any, target: Any, promised: dict[int, Vid], op: str) -> Vid:
    target = _ident(target, promised, op)
    return reader.latest_vid(target) if isinstance(target, Oid) else target


def _do_read(reader: Any, payload: Any, promised: dict[int, Vid]) -> Any:
    """READ: ``(target, attr)`` -> value; ``attr=None`` answers with the
    version's stored image, framed as it is (the client decodes it).

    Positional (a tuple, not a dict) because this is the hottest frame
    on the wire: two fewer key strings to encode, decode and hash per
    request.  ``reader`` is a snapshot (lock-free lane), or the database
    facade inside a transaction (2PL SHARED locks apply).
    """
    if type(payload) is not tuple or len(payload) != 2:
        raise ProtocolError("read payload must be (target, attr)")
    target, attr = payload
    vid = _version(reader, target, promised, "read")
    if attr is None:
        return protocol.Encoded(reader.version_bytes(vid))
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
    return _do_read(snap, payload, {})


def _do_write(db: Database, payload: Any, promised: dict[int, Vid]) -> Any:
    """WRITE: ``(target, attr, value)``; ``attr=None`` replaces the object.

    In-place update of the target version (or the latest, when the
    target is an Oid).  With an attribute name the value is one field;
    with ``attr=None`` the value is the whole new state.
    """
    if type(payload) is not tuple or len(payload) != 3:
        raise ProtocolError("write payload must be (target, attr, value)")
    target, attr, value = payload
    vid = _version(db, target, promised, "write")
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


# -- the with-statement embedding ----------------------------------------------


class ServerThread(OdeServer):
    """An :class:`OdeServer` (whose reactor is a thread of its own) in
    ``with`` form, for the stress harness, the swarm bench and tests::

        with ServerThread(db) as handle:
            ...connect clients to ("127.0.0.1", handle.port)...
    """

    @property
    def server(self) -> OdeServer:
        return self

    def start(self) -> "ServerThread":
        try:
            return super().start()
        except OSError as exc:
            raise NetworkError(f"server failed to start: {exc!r}") from exc

    def stop(self, timeout: float = 30.0) -> None:
        self.close(timeout)

    __enter__ = start

    def __exit__(self, *exc: object) -> None:
        self.close()
