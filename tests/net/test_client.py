"""Client-side failure handling: dead sockets, error frames, pool healing.

The regressions pinned here:

* a connection-level error frame (cid 0) must fail every in-flight
  request *immediately* -- not when (or if) the server's half-close is
  finally observed;
* ``send()`` on a connection whose receive loop has exited must raise
  eagerly instead of parking the caller on a future nothing will ever
  resolve;
* :meth:`OdeClient.lease` must never hand out -- or re-queue -- a dead
  connection: one lost socket costs one reconnect, not a permanently
  poisoned pool slot.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConnectionClosedError, DeadlineExceededError, NetworkError
from repro.net import protocol
from repro.net.client import OdeClient, OdeConnection, local_client_stats
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
            await hold.wait()  # crucially: do NOT close the socket

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

    asyncio.run(run())


# -- send() on a dead connection ----------------------------------------------


def test_send_after_recv_loop_exit_raises_eagerly():
    async def run():
        async def handler(reader, writer):
            writer.close()  # hang up without a word

        server, port = await _fake_server(handler)
        conn = await OdeConnection.open("127.0.0.1", port)
        try:
            await conn._recv_task  # EOF observed, loop exited
            assert conn.closed
            with pytest.raises(ConnectionClosedError):
                conn.send(protocol.OP_PING, "never sent")
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    asyncio.run(run())


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

    asyncio.run(run())


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

    asyncio.run(run())


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
    """Healing must close the dead socket, not just drop the object --
    a long-lived client leaking one socket per heal eventually hits the
    fd limit."""
    db, host, port, oid = served

    async def run():
        async with await OdeClient.connect(host, port, pool_size=1) as client:
            dead = client.connections[0]
            # Kill the receive loop but leave the transport open: the
            # condemned-but-connected state a server error frame leaves
            # behind.
            dead._recv_task.cancel()
            await asyncio.gather(dead._recv_task, return_exceptions=True)
            assert dead.closed and not dead._writer.is_closing()
            async with client.lease() as conn:
                assert conn is not dead
                assert await conn.read(oid, "weight") == 10
            assert client.heals == 1
            assert dead._writer.is_closing(), "heal leaked the dead socket"

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
