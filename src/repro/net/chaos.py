"""Deterministic network chaos: an in-process proxy with scripted faults.

The crash matrix proved the *storage* layer survives a dying process;
this module is the equivalent attack surface for the *wire*.  A
:class:`ChaosProxy` sits between clients and an
:class:`~repro.net.server.OdeServer`, forwarding raw bytes both ways,
and a :class:`ChaosPlan` -- seeded, so every run is reproducible --
decides what happens to each connection and each forwarded chunk:

* **delay** -- hold a chunk for a bounded, seeded-random interval before
  forwarding (reordering across connections, latency spikes within one);
* **duplicate** -- forward a chunk twice (at-least-once delivery: the
  receiver sees the same frames, and therefore the same correlation
  ids, again);
* **drop_chunk** -- silently discard a chunk.  Mid-stream this loses
  frame bytes and desynchronizes the framing, exactly like a
  misbehaving middlebox; the peer's decoder rejects the stream and the
  connection dies, which is the point;
* **truncate** -- forward only a prefix of a chunk, then kill the
  connection: the canonical *truncate-mid-frame*;
* **partition** -- refuse new connections and black-hole traffic on
  established ones until :meth:`ChaosProxy.heal` (an asymmetric-free,
  full partition); :meth:`ChaosProxyThread.kill_all` drops every live
  connection at once.

Determinism: all probabilistic choices draw from one ``random.Random``
seeded in the plan, and chunk/connection ordinals are deterministic for
a deterministic workload.

Fault-registry composition: the proxy visits the ``net.proxy.*`` error
points (:data:`repro.probe.POINTS`) on accept and on every forwarded
chunk, so a crashmatrix-style :class:`~repro.storage.
faults.FaultPlan` can compose disk and network faults in one scenario --
e.g. crash the process at the exact moment a commit acknowledgement
crosses the wire, or inject an :class:`~repro.storage.faults.
InjectedFaultError` (the proxy turns it into a dropped connection).

:class:`ChaosProxyThread` is the synchronous embedding (the harness and
tests drive it next to :class:`~repro.net.server.ServerThread`).
"""

from __future__ import annotations

import asyncio
import random
import threading
from dataclasses import dataclass, field
from typing import Any

from repro import probe
from repro.errors import NetworkError
from repro.storage import faults

__all__ = [
    "C2S",
    "S2C",
    "ChaosPlan",
    "ChaosProxy",
    "ChaosProxyThread",
]

#: Direction tags: client-to-server and server-to-client.
C2S = "c2s"
S2C = "s2c"

_CHUNK = 64 * 1024


@dataclass
class _DirRule:
    """Per-direction probabilistic knobs (all default off)."""

    delay_prob: float = 0.0
    delay_min: float = 0.0
    delay_max: float = 0.0
    dup_prob: float = 0.0
    drop_prob: float = 0.0
    truncate_prob: float = 0.0


class ChaosPlan:
    """A seeded schedule of network faults.

    Chainable like :class:`~repro.storage.faults.FaultPlan`::

        plan = (
            ChaosPlan(seed=7)
            .delay(S2C, prob=0.05, min_s=0.001, max_s=0.02)
            .duplicate(C2S, prob=0.02)
            .truncate(S2C, prob=0.01)
        )

    Probabilities are evaluated per forwarded chunk against a
    :class:`random.Random` derived per (connection ordinal, direction)
    via :meth:`stream_rng`, so each stream's fault schedule depends only
    on the seed and its own chunk sequence -- not on how asyncio happens
    to interleave the concurrent pump tasks.  A given seed plus a
    deterministic per-connection workload replays the same faults even
    under a concurrent swarm.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: dict[str, _DirRule] = {C2S: _DirRule(), S2C: _DirRule()}

    def stream_rng(self, conn_ordinal: int, direction: str) -> random.Random:
        """An independent RNG for one connection's one direction.

        Seeded from ``(seed, ordinal, direction)`` via the string form
        (:class:`random.Random` hashes str seeds deterministically,
        unlike tuple hashes under ``PYTHONHASHSEED``).
        """
        return random.Random(f"{self.seed}:{conn_ordinal}:{direction}")

    def _rule(self, direction: str) -> _DirRule:
        try:
            return self._rules[direction]
        except KeyError:
            raise ValueError(
                f"direction must be {C2S!r} or {S2C!r}, not {direction!r}"
            ) from None

    # -- probabilistic knobs (chainable) -----------------------------------

    def delay(
        self, direction: str, prob: float, min_s: float, max_s: float
    ) -> "ChaosPlan":
        """Hold chunks for a seeded-random interval in ``[min_s, max_s]``."""
        rule = self._rule(direction)
        rule.delay_prob, rule.delay_min, rule.delay_max = prob, min_s, max_s
        return self

    def duplicate(self, direction: str, prob: float) -> "ChaosPlan":
        """Forward chunks twice with probability ``prob``."""
        self._rule(direction).dup_prob = prob
        return self

    def drop_chunk(self, direction: str, prob: float) -> "ChaosPlan":
        """Silently discard chunks (desyncs framing; the connection dies)."""
        self._rule(direction).drop_prob = prob
        return self

    def truncate(self, direction: str, prob: float) -> "ChaosPlan":
        """Forward a prefix of a chunk, then kill the connection."""
        self._rule(direction).truncate_prob = prob
        return self


@dataclass
class ChaosStats:
    """What the proxy did -- asserted on by the harness and tests."""

    conns_total: int = 0
    conns_refused: int = 0
    conns_killed: int = 0
    chunks_forwarded: int = 0
    chunks_delayed: int = 0
    chunks_duplicated: int = 0
    chunks_dropped: int = 0
    chunks_truncated: int = 0
    bytes_forwarded: int = 0
    bytes_blackholed: int = 0
    partitions: int = 0


class _Link:
    """One proxied connection: two sockets, two pump tasks."""

    def __init__(
        self,
        ordinal: int,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        server_reader: asyncio.StreamReader,
        server_writer: asyncio.StreamWriter,
    ) -> None:
        self.ordinal = ordinal
        self.client_reader = client_reader
        self.client_writer = client_writer
        self.server_reader = server_reader
        self.server_writer = server_writer
        self.dead = False

    def kill(self) -> None:
        """Abort both transports (RST-style, no graceful FIN)."""
        self.dead = True
        for writer in (self.client_writer, self.server_writer):
            transport = writer.transport
            if transport is not None and not transport.is_closing():
                transport.abort()


class ChaosProxy:
    """A TCP proxy that mutilates traffic according to a :class:`ChaosPlan`.

    Forwards ``host:port`` to ``target_host:target_port``.  ``plan=None``
    forwards faithfully (useful as a control, and because
    :meth:`partition` works regardless of plan).
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        plan: ChaosPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.plan = plan or ChaosPlan()
        self.host = host
        self._requested_port = port
        self.stats = ChaosStats()
        self._server: asyncio.AbstractServer | None = None
        self._links: set[_Link] = set()
        self._tasks: set[asyncio.Task] = set()
        self._ordinals = iter(range(1 << 62))
        self._partitioned = False
        self._closed = False

    @property
    def port(self) -> int:
        """The proxy's bound port (connect clients here)."""
        assert self._server is not None, "proxy not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        return self

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in list(self._links):
            link.kill()
        # Handler tasks park in reads (or a blackhole sleep) that the
        # kills above unblock only eventually; cancel and await them so
        # a closing event loop never destroys a pending pump.
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- partition control ---------------------------------------------------

    def partition(self) -> None:
        """Full partition: refuse new connections, black-hole existing ones.

        Established connections stay *open* but no byte crosses in either
        direction -- the nastiest failure shape for a client, because
        nothing tells it the peer is gone; only its own deadline can.
        """
        if not self._partitioned:
            self._partitioned = True
            self.stats.partitions += 1

    def heal(self) -> None:
        """Lift the partition.  Connections that desynced during it die on
        their next frame; new connections succeed immediately."""
        self._partitioned = False

    # -- forwarding ----------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        ordinal = next(self._ordinals)
        self.stats.conns_total += 1
        try:
            probe.point("net.proxy.accept")
            refuse = self._partitioned
        except faults.InjectedFaultError:
            refuse = True
        if refuse:
            self.stats.conns_refused += 1
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return
        try:
            server_reader, server_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            self.stats.conns_refused += 1
            writer.transport.abort()
            return
        link = _Link(ordinal, reader, writer, server_reader, server_writer)
        self._links.add(link)
        try:
            await asyncio.gather(
                self._pump(link, C2S), self._pump(link, S2C)
            )
        except asyncio.CancelledError:
            # Only close() cancels handler tasks; finish normally so the
            # streams module's connection callback (which re-raises a
            # cancelled handler's "exception") stays quiet.
            return
        finally:
            self._links.discard(link)
            link.kill()

    async def _pump(self, link: _Link, direction: str) -> None:
        """Forward one direction of one link, chunk by chunk, per the plan."""
        if direction == C2S:
            reader, writer = link.client_reader, link.server_writer
            failpoint = "net.proxy.forward.c2s"
        else:
            reader, writer = link.server_reader, link.client_writer
            failpoint = "net.proxy.forward.s2c"
        rule = self.plan._rule(direction)
        rng = self.plan.stream_rng(link.ordinal, direction)
        try:
            while not link.dead:
                data = await reader.read(_CHUNK)
                if not data:
                    break
                if self._partitioned:
                    # Black-hole: swallow the bytes, keep the socket open.
                    self.stats.bytes_blackholed += len(data)
                    continue
                try:
                    probe.point(failpoint)
                except faults.InjectedFaultError:
                    self.stats.conns_killed += 1
                    link.kill()
                    return
                if rule.drop_prob and rng.random() < rule.drop_prob:
                    self.stats.chunks_dropped += 1
                    continue
                if rule.truncate_prob and rng.random() < rule.truncate_prob:
                    keep = rng.randrange(len(data)) if len(data) > 1 else 0
                    if keep:
                        writer.write(data[:keep])
                        self.stats.bytes_forwarded += keep
                    self.stats.chunks_truncated += 1
                    self.stats.conns_killed += 1
                    # Let the truncated prefix reach the peer's transport
                    # before the RST tears the link down.
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    link.kill()
                    return
                if rule.delay_prob and rng.random() < rule.delay_prob:
                    self.stats.chunks_delayed += 1
                    await asyncio.sleep(rng.uniform(rule.delay_min, rule.delay_max))
                    if link.dead or self._partitioned:
                        self.stats.bytes_blackholed += len(data)
                        continue
                repeats = 1
                if rule.dup_prob and rng.random() < rule.dup_prob:
                    self.stats.chunks_duplicated += 1
                    repeats = 2
                for _ in range(repeats):
                    writer.write(data)
                    await writer.drain()
                    self.stats.bytes_forwarded += len(data)
                self.stats.chunks_forwarded += 1
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            if not link.dead:
                # Half-close propagation: one side hung up cleanly; tell
                # the other side so its reader sees EOF, not a stall.
                try:
                    if writer.can_write_eof():
                        writer.write_eof()
                except (OSError, RuntimeError):
                    pass


class ChaosProxyThread:
    """Run a :class:`ChaosProxy` on a private event loop in a daemon thread.

    The synchronous embedding, mirroring :class:`~repro.net.server.
    ServerThread`::

        with ServerThread(db) as srv, ChaosProxyThread(srv.host, srv.port, plan) as px:
            ...connect clients to ("127.0.0.1", px.port)...
            px.partition()
            ...
            px.heal()
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        plan: ChaosPlan | None = None,
        **proxy_kwargs: Any,
    ) -> None:
        self._proxy = ChaosProxy(target_host, target_port, plan, **proxy_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self._proxy.port

    @property
    def host(self) -> str:
        return self._proxy.host

    @property
    def stats(self) -> ChaosStats:
        return self._proxy.stats

    def start(self) -> "ChaosProxyThread":
        self._thread = threading.Thread(
            target=self._run, name="ode-chaos-proxy", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise NetworkError(
                f"chaos proxy failed to start: {self._startup_error!r}"
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
                await self._proxy.start()
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            try:
                await stop
            finally:
                await self._proxy.close()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def partition(self) -> None:
        """Thread-safe partition toggle (see :meth:`ChaosProxy.partition`)."""
        loop = self._loop
        assert loop is not None, "proxy not started"
        loop.call_soon_threadsafe(self._proxy.partition)

    def heal(self) -> None:
        loop = self._loop
        assert loop is not None, "proxy not started"
        loop.call_soon_threadsafe(self._proxy.heal)

    def kill_all(self) -> None:
        """Abort every live proxied connection (a mass disconnect)."""
        loop = self._loop
        assert loop is not None, "proxy not started"

        def _kill() -> None:
            for link in list(self._proxy._links):
                self._proxy.stats.conns_killed += 1
                link.kill()

        loop.call_soon_threadsafe(_kill)

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        loop.call_soon_threadsafe(
            lambda: self._stop_future.done() or self._stop_future.set_result(None)
        )
        assert self._thread is not None
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise NetworkError(
                "chaos proxy thread failed to stop within 30s; its event "
                "loop is wedged (a leaked pump task?)"
            )

    def __enter__(self) -> "ChaosProxyThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
