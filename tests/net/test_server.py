"""The server over a live socket: sessions, teardown, hostile peers.

Everything here drives a real :class:`~repro.net.server.ServerThread`
through real sockets -- the asyncio client for well-behaved traffic,
raw ``socket`` for the byte-level misbehaviour (mid-frame disconnects,
oversized declarations, garbage) that the protocol promises to survive.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.errors import (
    RemoteError,
    ServerDrainingError,
    ServerOverloadedError,
    TransactionStateError,
)
from repro.net import protocol
from repro.net.client import OdeClient, OdeConnection
from repro.net.server import ServerThread
from tests.conftest import Part


@pytest.fixture
def served(db):
    """(db, host, port, oid): a served database with one Part in it."""
    with db.transaction():
        ref = db.pnew(Part("bolt", 10))
    with ServerThread(db) as server:
        yield db, server.host, server.port, ref.oid


def _wait_stats(db, key, value, timeout=5.0):
    """Poll ``db.stats()[key] == value`` (async teardown needs a beat)."""
    deadline = time.monotonic() + timeout
    while True:
        stats = db.stats()
        if stats[key] == value or time.monotonic() >= deadline:
            return stats


def _recv_frame(sock):
    """Read one frame off a raw socket; None on disconnect."""
    decoder = protocol.FrameDecoder()
    while True:
        data = sock.recv(64 * 1024)
        if not data:
            return None
        for frame in decoder.feed(data):
            return frame


# -- hostile peers ------------------------------------------------------------


def test_oversized_payload_clean_error_then_disconnect(db):
    """A frame declaring more than max_frame gets a typed error frame
    (cid 0 = connection-level), then the socket is closed server-side."""
    with ServerThread(db, max_frame=4096) as server:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall((1024 * 1024).to_bytes(4, "little"))
            opcode, cid, payload = _recv_frame(sock)
            assert opcode == protocol.RESP_ERR
            assert cid == 0
            assert payload["error"] == "FrameTooLargeError"
            assert sock.recv(1024) == b"", "server must hang up after the error"
        stats = _wait_stats(db, "net.connections", 0)
        assert stats["net.connections"] == 0
        assert stats["net.errors"] >= 1


def test_client_that_never_reads_is_dropped_and_counted(db):
    """Responses to a peer that sends and never reads pile up past the
    transport's high-water mark; the flush then blocks, and after
    ``slow_client_timeout`` the connection is aborted and counted.  A
    peer that does read is served through the same low limit, untouched."""
    pad = "x" * 32 * 1024
    with ServerThread(db, write_buffer_limit=1024, slow_client_timeout=0.2) as server:
        async def polite():
            async with await OdeConnection.open(server.host, server.port) as conn:
                return [await conn.ping({"pad": pad, "n": n}) for n in range(8)]

        assert [r["n"] for r in asyncio.run(polite())] == list(range(8))
        assert db.stats()["net.slow_client_disconnects"] == 0
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            try:
                for cid in range(1, 2000):  # ~64 MiB of echoes, never read
                    sock.sendall(protocol.build_frame(protocol.OP_PING, cid, {"pad": pad}))
            except OSError:
                pass  # the server hung up on us mid-send: the point
            stats = _wait_stats(db, "net.slow_client_disconnects", 1)
        assert stats["net.slow_client_disconnects"] == 1
        assert _wait_stats(db, "net.connections", 0)["net.connections"] == 0


def test_garbage_magic_clean_error_then_disconnect(served):
    db, host, port, _ = served
    with socket.create_connection((host, port)) as sock:
        sock.sendall(bytes([16, 0, 0, 0]) + b"NOT-A-PROTOCOL-PEER")
        opcode, cid, payload = _recv_frame(sock)
        assert (opcode, cid) == (protocol.RESP_ERR, 0)
        assert payload["error"] == "ProtocolError"
        assert "magic" in payload["message"]
        assert sock.recv(1024) == b""
    assert _wait_stats(db, "net.connections", 0)["net.connections"] == 0


def test_mid_frame_disconnect_tears_down_session(served):
    """A client dying halfway through a frame leaves nothing behind."""
    db, host, port, oid = served
    frame = protocol.build_frame(protocol.OP_READ, 1, (oid, "weight"))
    with socket.create_connection((host, port)) as sock:
        sock.sendall(frame[: len(frame) // 2])
        _wait_stats(db, "net.connections", 1)
    stats = _wait_stats(db, "net.connections", 0)
    assert stats["net.connections"] == 0
    assert stats["net.sessions"] == 0


def test_disconnect_aborts_open_transaction(served):
    """Dropping a connection mid-transaction aborts it and frees its locks."""
    db, host, port, oid = served

    async def abandon():
        conn = await OdeConnection.open(host, port)
        await conn.begin()
        await conn.write(oid, "weight", 999)
        await conn.close()  # no commit

    asyncio.run(abandon())
    _wait_stats(db, "net.connections", 0)

    async def observe():
        async with await OdeConnection.open(host, port) as conn:
            # The abandoned write rolled back, and its EXCLUSIVE lock is
            # gone -- a new wire transaction can take it immediately.
            assert await conn.read(oid, "weight") == 10
            await conn.begin()
            await conn.write(oid, "weight", 11)
            await conn.commit()
            return await conn.read(oid, "weight")

    assert asyncio.run(observe()) == 11


# -- pipelining ----------------------------------------------------------------


def test_pipelined_out_of_order_completion(served):
    """Fast requests pipelined behind a slow one complete first, and every
    response lands on the future that sent it (correlation ids)."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            slow = conn.send(protocol.OP_PING, {"delay": 0.5, "tag": "slow"})
            fast = [conn.send(protocol.OP_READ, (oid, "weight")) for _ in range(8)]
            echo = conn.send(protocol.OP_PING, {"tag": "quick"})
            vals = await asyncio.gather(*fast)
            quick = await echo
            assert not slow.done(), "slow ping must still be in flight"
            return vals, quick, await slow

    vals, quick, slow = asyncio.run(run())
    assert vals == [10] * 8
    assert quick == {"tag": "quick"}
    assert slow == {"delay": 0.5, "tag": "slow"}
    assert db.stats()["net.pipeline_max"] >= 2


def test_pipelined_errors_resolve_their_own_futures(served):
    """An error response fails only the request that caused it."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            bad = conn.send(protocol.OP_READ, (oid, "no_such_attr"))
            good = conn.send(protocol.OP_READ, (oid, "weight"))
            worse = conn.send(protocol.OP_COMMIT)  # no txn open
            assert await good == 10
            with pytest.raises((RemoteError, AttributeError)):
                await bad
            with pytest.raises(TransactionStateError):
                await worse
            # The connection survives its errors.
            return await conn.ping("still-alive")

    assert asyncio.run(run()) == "still-alive"


def test_reads_pipelined_around_snapshot_ops_stay_correct(served):
    """Reads fired in the same chunk as OP_SNAPSHOT pin/unpin must never
    resolve against a snapshot the unpin just closed: while a snapshot op
    is in flight, the read lane is serialized with it instead of touching
    ``session.reader()`` bare on the event loop."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            for _ in range(20):
                batch = [
                    conn.send(protocol.OP_SNAPSHOT, {"pin": True}),
                    conn.send(protocol.OP_READ, (oid, "weight")),
                    conn.send(protocol.OP_SNAPSHOT, {"pin": False}),
                    conn.send(protocol.OP_READ, (oid, "weight")),
                ]
                _, v1, _, v2 = await asyncio.gather(*batch)
                assert (v1, v2) == (10, 10)
            return await conn.ping("done")

    assert asyncio.run(run()) == "done"


# -- sessions and the client pool ---------------------------------------------


def test_wire_transaction_round_trip(served):
    """begin / pnew / write / query / commit, all over the socket."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            await conn.begin()
            new_oid = await conn.pnew(Part("nut", 3))
            await conn.write(new_oid, "weight", 4)
            await conn.commit()
            assert await conn.read(new_oid, "weight") == 4
            part = await conn.read(new_oid)  # attr=None materializes
            assert (part.name, part.weight) == ("nut", 4)
            oids = await conn.query("tests.Part", ("weight", 4))
            assert oids == [new_oid]
            stats = await conn.stats()
            assert stats["net.connections"] == 1
            assert stats["net.commits"] >= 1

    asyncio.run(run())


def test_client_pool_lease_and_round_robin(served):
    db, host, port, oid = served

    async def run():
        async with await OdeClient.connect(host, port, pool_size=3) as client:
            vals = await asyncio.gather(*(client.read(oid, "weight") for _ in range(9)))
            assert vals == [10] * 9
            async with client.lease() as conn:
                await conn.begin()
                await conn.write(oid, "weight", 12)
                await conn.commit()
            assert await client.read(oid, "weight") == 12
        assert db.stats()["net.connections_total"] >= 3

    asyncio.run(run())


# -- fault tolerance: health, admission control, drain ------------------------


def test_health_opcode_reports_liveness(served):
    """OP_HEALTH answers on the inline lane with drain state and the
    connection count; no shard map for a plain embedded Database."""
    db, host, port, oid = served

    async def run():
        conn = await OdeConnection.open(host, port)
        try:
            health = await conn.health()
            assert health["status"] == "ok"
            assert health["draining"] is False
            assert health["connections"] >= 1
            assert "shards" not in health
        finally:
            await conn.close()

    asyncio.run(run())


def test_overload_sheds_excess_inflight_before_execution(served):
    """With the per-connection in-flight cap at 1, a second stateful op
    pipelined behind a slow one is refused with ServerOverloadedError --
    *before* dispatch, so the shed request provably never executed."""
    db, host, port, oid = served
    with ServerThread(db, max_inflight=1) as server:

        async def run():
            conn = await OdeConnection.open(server.host, server.port)
            try:
                # A delay-ping is deliberately stateful (executor-bound):
                # it occupies the connection's single in-flight slot.
                slow = asyncio.ensure_future(conn.ping({"delay": 0.4}))
                await asyncio.sleep(0.1)  # let it reach the executor
                with pytest.raises(ServerOverloadedError):
                    await conn.ping({"delay": 0.01})
                assert await slow == {"delay": 0.4}  # the slot holder finished
                assert await conn.ping("after") == "after"  # conn still fine
            finally:
                await conn.close()

        asyncio.run(run())
        assert db.stats()["net.shed"] >= 1  # while the server is attached


def test_drain_refuses_new_mutations_but_finishes_open_txns(served):
    """Graceful drain: the open transaction runs to commit, an idle
    session's new BEGIN is refused with the retryable draining error,
    and health keeps answering (reporting draining) throughout."""
    db, host, port, oid = served
    server = ServerThread(db).start()
    try:

        async def run():
            a = await OdeConnection.open(server.host, server.port)
            b = await OdeConnection.open(server.host, server.port)
            try:
                await a.begin()
                await a.write(oid, "weight", 77)
                drain = asyncio.ensure_future(
                    asyncio.to_thread(server.drain, 10.0)
                )
                for _ in range(200):
                    health = await b.health()
                    if health["draining"]:
                        break
                    await asyncio.sleep(0.01)
                else:
                    pytest.fail("drain never engaged")
                with pytest.raises(ServerDrainingError):
                    await b.begin()
                await a.commit()  # in-flight work finishes cleanly
                await drain
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())
    finally:
        server.stop()
    with db.snapshot() as snap:
        assert snap.read_attr(snap.latest_vid(oid), "weight") == 77
