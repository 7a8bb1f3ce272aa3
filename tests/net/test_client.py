"""Client-side failure handling: dead sockets, error frames, pool healing.

The regressions pinned here:

* a connection-level error frame (cid 0) must fail every in-flight
  request *immediately* -- not when (or if) the server's half-close is
  finally observed;
* a connection that saw EOF closes its own transport, and ``send()``
  on it raises eagerly instead of parking the caller on a future
  nothing will ever resolve;
* ``request()`` applies the transport's write backpressure: against a
  server that is not reading, callers wait (within their deadline) and
  the client's buffer stays bounded;
* :meth:`OdeClient.lease` must never hand out -- or re-queue -- a dead
  connection: one lost socket costs one reconnect, not a permanently
  poisoned pool slot;
* write-behind: inside a transaction ``write`` does not wait, so its
  failure -- a bad target, a lock timeout, a lost connection -- must
  surface at ``commit()``, with nothing committed.
"""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro import Database
from repro.core.identity import Vid
from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    LockTimeoutError,
    NetworkError,
    ProtocolError,
    ServerDrainingError,
    UnknownVersionError,
)
from repro.net import protocol
from repro.net.client import OdeClient, OdeConnection, is_retryable, local_client_stats
from repro.net.server import ServerThread
from tests.conftest import Part


@pytest.fixture
def served(db):
    """(db, host, port, oid): a served database with one Part in it."""
    with db.transaction():
        ref = db.pnew(Part("bolt", 10))
    with ServerThread(db) as server:
        yield db, server.host, server.port, ref.oid


async def _fake_server(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


# -- connection-level error frames --------------------------------------------


def test_connection_error_frame_fails_inflight_requests_immediately():
    """A cid-0 RESP_ERR fails every pending future right away, even if
    the server never closes the socket afterwards."""

    async def run():
        hold = asyncio.Event()

        async def handler(reader, writer):
            await reader.read(1024)  # whatever the client pipelined
            writer.write(
                protocol.build_frame(
                    protocol.RESP_ERR,
                    0,
                    {"error": "ProtocolError", "message": "poisoned stream"},
                )
            )
            await writer.drain()
            await hold.wait()  # crucially: do NOT close the socket until the end
            writer.close()
            await writer.wait_closed()

        server, port = await _fake_server(handler)
        conn = await OdeConnection.open("127.0.0.1", port)
        try:
            pending = [conn.send(protocol.OP_PING, {"i": i}) for i in range(3)]
            for future in pending:
                with pytest.raises(ConnectionClosedError):
                    # Bounded wait: before the fix this hung until EOF.
                    await asyncio.wait_for(future, timeout=2.0)
            # The connection is condemned and says why.
            assert conn.closed
            with pytest.raises(ConnectionClosedError, match="ProtocolError"):
                conn.send(protocol.OP_PING)
        finally:
            hold.set()
            await conn.close()
            server.close()
            await server.wait_closed()

    # Debug mode: one full collection over 2 000 tasks' creation tracebacks
    # is a > 100 ms step that the conftest fixture would blame on the loop.
    gc.disable()
    try:
        asyncio.run(run())
    finally:
        gc.enable()


# -- send() on a dead connection ----------------------------------------------


async def _until_closed(conn, timeout=2.0):
    """Let the loop observe the peer's hang-up (nobody calls ``close``)."""
    async with asyncio.timeout(timeout):
        while not conn.closed:
            await asyncio.sleep(0.005)


def test_send_after_recv_loop_exit_raises_eagerly():
    """EOF condemns the connection on its own: ``closed`` turns true with
    the transport already closing, ``send`` raises eagerly, and ``close``
    afterwards (twice) is a no-op that returns."""

    async def run():
        async def handler(reader, writer):
            writer.close()  # hang up without a word

        server, port = await _fake_server(handler)
        conn = await OdeConnection.open("127.0.0.1", port)
        try:
            await _until_closed(conn)
            assert conn.transport.is_closing(), "EOF must close the socket too"
            with pytest.raises(ConnectionClosedError):
                conn.send(protocol.OP_PING, "never sent")
        finally:
            await asyncio.wait_for(conn.close(), 2.0)
            await asyncio.wait_for(conn.close(), 2.0)
            server.close()
            await server.wait_closed()

    # Debug mode: one full collection over 2 000 tasks' creation tracebacks
    # is a > 100 ms step that the conftest fixture would blame on the loop.
    gc.disable()
    try:
        asyncio.run(run())
    finally:
        gc.enable()


def test_disconnect_fails_request_already_in_flight():
    async def run():
        async def handler(reader, writer):
            await reader.read(1024)  # swallow the request, answer nothing
            writer.close()

        server, port = await _fake_server(handler)
        conn = await OdeConnection.open("127.0.0.1", port)
        try:
            with pytest.raises(ConnectionClosedError):
                await asyncio.wait_for(conn.ping("stranded"), timeout=2.0)
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    # Debug mode: one full collection over 2 000 tasks' creation tracebacks
    # is a > 100 ms step that the conftest fixture would blame on the loop.
    gc.disable()
    try:
        asyncio.run(run())
    finally:
        gc.enable()


# -- the request deadline -------------------------------------------------------


def test_deadline_abandons_the_request_and_discards_its_late_response():
    """One timer handle bounds the wait: on expiry the caller gets
    DeadlineExceededError, the entry stays pending (abandoned, not
    cancelled), and the late response pops it and is discarded -- the
    next request on the connection correlates cleanly.  An answered
    request leaves no live timer behind."""

    async def run():
        release = asyncio.Event()

        async def handler(reader, writer):
            decoder = protocol.FrameDecoder()
            while data := await reader.read(1024):
                for _opcode, cid, payload in decoder.feed(data):
                    if payload == "slow":
                        await release.wait()
                    writer.write(protocol.build_frame(protocol.RESP_OK, cid, payload))
            writer.close()

        server, port = await _fake_server(handler)
        conn = await OdeConnection.open("127.0.0.1", port)
        try:
            before = local_client_stats()["net.deadline_expired"]
            with pytest.raises(DeadlineExceededError):
                await conn.ping("slow", deadline=0.05)
            assert conn.deadline_expired == 1
            assert local_client_stats()["net.deadline_expired"] == before + 1
            assert len(conn._pending) == 1, "abandoned, not forgotten"
            release.set()
            assert await conn.ping("next", deadline=2.0) == "next"
            assert not conn._pending, "the late response must pop its entry"
            # A caller cancelled mid-wait is abandoned the same way.
            release.clear()
            waiter = asyncio.ensure_future(conn.ping("slow", deadline=5.0))
            await asyncio.sleep(0.02)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            release.set()
            assert await conn.ping("after-cancel", deadline=2.0) == "after-cancel"
            assert not conn._pending
            live = [
                h for h in asyncio.get_running_loop()._scheduled if not h.cancelled()
            ]
            assert not live, f"answered requests left timers armed: {live}"
            assert conn.deadline_expired == 1
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    # Debug mode: one full collection over 2 000 tasks' creation tracebacks
    # is a > 100 ms step that the conftest fixture would blame on the loop.
    gc.disable()
    try:
        asyncio.run(run())
    finally:
        gc.enable()


# -- write backpressure ---------------------------------------------------------


def test_requests_wait_out_a_server_that_is_not_reading():
    """A peer that accepts and never reads: once the transport pauses
    writing, ``request()`` callers wait instead of sending, so the write
    buffer stays at its high-water mark plus one cork however many
    requests are parked, and each gives up at its own deadline."""
    from repro.net.client import _FLUSH_BYTES

    async def run():
        hold, hung_up = asyncio.Event(), asyncio.Event()

        async def handler(reader, writer):
            await hold.wait()  # accept, then never read
            writer.close()
            await writer.wait_closed()
            hung_up.set()

        server, port = await _fake_server(handler)
        conn = await OdeConnection.open("127.0.0.1", port)
        try:
            body = "x" * 64 * 1024
            calls = []
            for n in range(2000):
                calls.append(asyncio.ensure_future(conn.ping(body, deadline=0.5)))
                if n % 50 == 49:  # debug mode: 2 000 tasks made in one step is slow
                    await asyncio.sleep(0)
            results = []
            for at in range(0, len(calls), 50):  # debug mode: so is one 2 000-future gather
                results += await asyncio.gather(*calls[at : at + 50], return_exceptions=True)
            assert {type(r) for r in results} == {DeadlineExceededError}
            assert conn.deadline_expired == 2000
            high_water = conn.transport.get_write_buffer_limits()[1]
            backlog = conn.transport.get_write_buffer_size()
            assert 0 < backlog <= high_water + _FLUSH_BYTES + len(body) + 64
            # What was never sent is not waited for at close.
            await asyncio.wait_for(conn.close(), 2.0)
        finally:
            hold.set()
            await asyncio.wait_for(hung_up.wait(), 2.0)
            server.close()
            await server.wait_closed()

    # Debug mode: one full collection over 2 000 tasks' creation tracebacks
    # is a > 100 ms step that the conftest fixture would blame on the loop.
    gc.disable()
    try:
        asyncio.run(run())
    finally:
        gc.enable()


# -- pool healing -------------------------------------------------------------


def test_lease_replaces_connection_that_died_while_parked(served):
    db, host, port, oid = served

    async def run():
        async with await OdeClient.connect(host, port, pool_size=1) as client:
            dead = client.connections[0]
            await dead.close()
            # The only pooled connection is dead; the lease must heal,
            # not hand it out.
            async with client.lease() as conn:
                assert conn is not dead
                assert not conn.closed
                assert await conn.read(oid, "weight") == 10
            assert client.heals == 1
            assert all(not c.closed for c in client.connections)

    asyncio.run(run())


def test_lease_replaces_connection_killed_mid_lease(served):
    db, host, port, oid = served

    async def run():
        async with await OdeClient.connect(host, port, pool_size=2) as client:
            async with client.lease() as conn:
                await conn.begin()
                await conn.write(oid, "weight", 77)
                await conn.close()  # dies mid-transaction
            assert client.heals == 1
            # Every lease from now on draws a live connection; the dead
            # one's transaction rolled back server-side.
            for _ in range(4):
                async with client.lease() as again:
                    assert not again.closed
                    assert await again.read(oid, "weight") == 10

    asyncio.run(run())


def test_heal_tears_down_the_dead_connections_transport(served):
    """A condemned connection must not keep its socket -- a long-lived
    client leaking one per heal eventually hits the fd limit.  The server
    condemns this one with a connection-level error frame (garbage sent
    behind the pool's back); its transport closes without anyone calling
    ``close()``, and the next lease heals the slot."""
    db, host, port, oid = served

    async def run():
        async with await OdeClient.connect(host, port, pool_size=1) as client:
            dead = client.connections[0]
            dead.transport.write(bytes([16, 0, 0, 0]) + b"NOT-A-PROTOCOL-PEER")
            await _until_closed(dead)
            assert dead.transport.is_closing(), "the condemned socket leaked"
            with pytest.raises(ConnectionClosedError, match="magic"):
                dead.send(protocol.OP_PING)
            async with client.lease() as conn:
                assert conn is not dead
                assert await conn.read(oid, "weight") == 10
            assert client.heals == 1

    asyncio.run(run())


def test_round_robin_stateless_helpers_skip_dead_connections(served):
    db, host, port, oid = served

    async def run():
        async with await OdeClient.connect(host, port, pool_size=3) as client:
            await client.connections[0].close()
            vals = [await client.read(oid, "weight") for _ in range(9)]
            assert vals == [10] * 9

    asyncio.run(run())


def test_lease_surfaces_outage_without_losing_the_pool_slot(db):
    """Server down + dead pooled connection: every lease reports the
    outage (instead of hanging or yielding the corpse), and the slot's
    queue ticket survives so the pool can heal once the server returns."""

    async def run():
        server = ServerThread(db)
        server.start()
        host, port = server.host, server.port
        client = await OdeClient.connect(host, port, pool_size=1)
        try:
            await client.connections[0].close()
            server.stop()
            for _ in range(2):  # the ticket keeps coming back
                with pytest.raises(NetworkError, match="reconnect"):
                    async with asyncio.timeout(5):
                        async with client.lease():
                            pytest.fail("must not lease a dead connection")
        finally:
            await client.close()

    asyncio.run(run())


# -- write-behind --------------------------------------------------------------


def test_a_failed_write_surfaces_at_commit(served):
    """Inside a transaction ``write`` returns before its answer; a bad
    target's ProtocolError comes back from ``commit()``, and the
    transaction's good write is rolled back with it."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            await conn.begin()
            await conn.write(oid, "weight", 20)
            await conn.write("not-an-oid", "weight", 0)  # does not raise
            with pytest.raises(ProtocolError, match="write target must be"):
                await conn.commit()
            return await conn.read(oid, "weight")

    assert asyncio.run(run()) == 10


def test_a_lock_timeout_surfaces_at_commit_and_a_rerun_succeeds(tmp_path):
    """Another session holds the X lock: the write's LockTimeoutError
    arrives with the COMMIT, keeps its type (so it is retryable), and
    re-running the whole transaction once the lock is free commits."""
    db = Database(tmp_path / "db", lock_timeout=0.2)
    try:
        with db.transaction():
            oid = db.pnew(Part("bolt", 10)).oid
        with ServerThread(db) as server:

            async def run():
                async with await OdeConnection.open(server.host, server.port) as holder, \
                        await OdeConnection.open(server.host, server.port) as conn:
                    await holder.begin()
                    await holder.send(protocol.OP_WRITE, (oid, "weight", 11))
                    await conn.begin()
                    await conn.write(oid, "weight", 12)
                    with pytest.raises(LockTimeoutError) as failed:
                        await conn.commit()
                    await holder.abort()
                    await conn.begin()  # the re-run, with the lock free
                    await conn.write(oid, "weight", 12)
                    await conn.commit()
                    return is_retryable(failed.value), await conn.read(oid, "weight")

            assert asyncio.run(run()) == (True, 12)
    finally:
        db.close()


def test_write_outside_a_transaction_still_waits_and_raises(served):
    """An autocommit write waits for its ack and raises its own error.
    A ``begin()`` the draining server refuses returns at once; the write
    behind it does not land, and ``commit()`` raises the refusal."""
    db, host, port, oid = served
    with ServerThread(db) as server:

        async def run():
            async with await OdeConnection.open(server.host, server.port) as conn, \
                    await OdeConnection.open(server.host, server.port) as other:
                with pytest.raises(ProtocolError):
                    await conn.write("not-an-oid", "weight", 0)
                await conn.write(oid, "weight", 30)  # acknowledged on return
                with db.snapshot() as snap:
                    assert snap.read_attr(snap.latest_vid(oid), "weight") == 30
                await other.begin()
                await other.read(oid, "weight")  # its BEGIN ran: it holds the drain open
                drain = asyncio.ensure_future(asyncio.to_thread(server.drain, 5.0))
                while not (await other.health())["draining"]:
                    await asyncio.sleep(0.01)
                await conn.begin()  # refused, but does not wait to hear it
                await conn.write(oid, "weight", 31)  # rides behind it: doomed
                with pytest.raises(ServerDrainingError):
                    await conn.commit()
                with pytest.raises(ServerDrainingError):
                    await conn.write(oid, "weight", 32)  # autocommit: waits
                with db.snapshot() as snap:
                    assert snap.read_attr(snap.latest_vid(oid), "weight") == 30
                await other.commit()
                await drain

        asyncio.run(run())


def test_a_connection_killed_before_commit_commits_nothing(served):
    """The connection dies between ``write()`` and ``commit()``: the
    commit raises ConnectionClosedError, and the server's teardown
    rolls the write back."""
    db, host, port, oid = served

    async def run():
        conn = await OdeConnection.open(host, port)
        await conn.begin()
        await conn.write(oid, "weight", 40)
        await asyncio.sleep(0)  # the corked WRITE leaves
        conn.transport.abort()
        with pytest.raises(ConnectionClosedError):
            await conn.commit()
        await conn.close()
        async with await OdeConnection.open(host, port) as again:
            await again.begin(deadline=2.0)
            await again.write(oid, "weight", 41)  # the X lock is free again
            await again.abort(deadline=2.0)
            return await again.read(oid, "weight")

    assert asyncio.run(run()) == 10


def test_pdelete_rides_with_the_commit_too(served):
    """``pdelete`` is write-behind like ``write``: a version that does not
    exist fails at ``commit()``; a real one is gone after it."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            await conn.begin()
            vid = await conn.newversion(oid)
            await conn.commit()
            await conn.begin()
            await conn.pdelete(Vid(oid, 99))  # does not raise
            with pytest.raises(UnknownVersionError):
                await conn.commit()
            await conn.begin()
            await conn.pdelete(vid)
            await conn.commit()
            return [v.vid.serial for v in db.versions(oid)]

    assert asyncio.run(run()) == [1]


@pytest.mark.parametrize("max_inflight", [1, 2])
def test_write_behind_stays_within_a_small_max_inflight(served, max_inflight):
    """The server's ``max_inflight`` bounds the writes a transaction
    leaves unanswered: past it a write waits for the ones before it, and
    the COMMIT has a slot of its own, so nothing is shed."""
    db, host, port, oid = served
    with ServerThread(db, max_inflight=max_inflight) as server:

        async def run():
            async with await OdeConnection.open(server.host, server.port) as conn:
                await conn.begin()
                for weight in (21, 22, 23):
                    await conn.write(oid, "weight", weight)
                await conn.commit()
                await conn.begin()  # the session is free for the next one
                await conn.write(oid, "weight", 24)
                await conn.abort()
                return (await conn.health())["max_inflight"], await conn.read(oid, "weight")

        assert asyncio.run(run()) == (max_inflight, 23)
        assert db.stats()["net.shed"] == 0


def test_pooled_reads_skip_a_connection_inside_a_transaction(served):
    """A pooled read never rides on a leased connection whose transaction
    is doomed while another connection is free."""
    db, host, port, oid = served

    async def run():
        client = await OdeClient.connect(host, port, pool_size=2)
        try:
            async with client.lease() as conn:
                await conn.begin()
                await conn.write("not-an-oid", "weight", 0)  # dooms it
                reads = [await client.read(oid, "weight") for _ in range(4)]
                with pytest.raises(ProtocolError):
                    await conn.commit()
            return reads
        finally:
            await client.close()

    assert asyncio.run(run()) == [10] * 4
