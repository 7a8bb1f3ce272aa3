"""The server over a live socket: sessions, teardown, hostile peers.

Everything here drives a real :class:`~repro.net.server.ServerThread`
through real sockets -- the asyncio client for well-behaved traffic,
raw ``socket`` for the byte-level misbehaviour (mid-frame disconnects,
oversized declarations, garbage) that the protocol promises to survive.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
import time

import pytest

from repro.core.identity import Vid
from repro.errors import (
    ProtocolError,
    RemoteError,
    ServerDrainingError,
    ServerOverloadedError,
    SessionStateError,
    TransactionStateError,
    UnknownVersionError,
)
from repro.net import protocol
from repro.net.client import OdeClient, OdeConnection, is_retryable
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
    """A frame declaring more than MAX_FRAME_BYTES gets a typed error frame
    (cid 0 = connection-level), then the socket is closed server-side."""
    with ServerThread(db) as server:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "little"))
            opcode, cid, payload = _recv_frame(sock)
            assert opcode == protocol.RESP_ERR
            assert cid == 0
            assert payload["error"] == "FrameTooLargeError"
            assert sock.recv(1024) == b"", "server must hang up after the error"
        stats = _wait_stats(db, "net.connections", 0)
        assert stats["net.connections"] == 0
        assert stats["net.errors"] >= 1


def test_client_that_never_reads_is_dropped_and_counted(db):
    """Responses to a peer that sends and never reads fill the socket's
    send buffer (``write_buffer_limit`` is its ``SO_SNDBUF``); the rest
    is parked, the reactor stops reading from that peer, and after
    ``slow_client_timeout`` the connection is dropped and counted.  A
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


def test_slow_reader_gets_every_frame_whole_from_both_writers(db):
    """Partial writes from two threads.  A raw client with a tiny receive
    buffer pipelines 200 reads of a 64 KiB object around BEGIN / WRITE /
    COMMIT bursts and reads slowly, so the reactor (inline reads) and the
    lane's runner (everything behind a burst) both hit a full socket:
    every response decodes whole, lane responses arrive in send order,
    the parked-bytes path really ran, and the server reads from the peer
    again once the backlog has drained."""
    big = "n" * 64 * 1024
    with db.transaction():
        oid = db.pnew(Part(big, 0)).oid
    requests, lane_cids, bursts = [], [], 20
    for j in range(bursts):
        requests += [(protocol.OP_READ, (oid, None))] * 10
        requests += [
            (protocol.OP_BEGIN, None),
            (protocol.OP_WRITE, (oid, "weight", j + 1)),
            (protocol.OP_COMMIT, None),
        ]
        lane_cids += range(len(requests) - 2, len(requests) + 1)
    stream = b"".join(
        protocol.build_frame(opcode, cid, payload)
        for cid, (opcode, payload) in enumerate(requests, start=1)
    )
    with ServerThread(db, max_inflight=len(requests)) as server:
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(30.0)
        sock.connect((server.host, server.port))
        with sock:
            sender = threading.Thread(target=sock.sendall, args=(stream,))
            sender.start()
            decoder, got = protocol.FrameDecoder(), []
            while len(got) < len(requests):
                time.sleep(0.0005)  # the slow reader
                data = sock.recv(8192)
                assert data, "server hung up mid-stream"
                got.extend(decoder.feed(data))
            sender.join(10.0)
            assert not sender.is_alive()
            assert decoder.pending_bytes == 0
            # The reactor reads from this peer again: a late request answers.
            sock.sendall(protocol.build_frame(protocol.OP_READ, 9999, (oid, "weight")))
            assert _recv_frame(sock) == (protocol.RESP_OK, 9999, bursts)
        stats = db.stats()
    assert {opcode for opcode, _, _ in got} == {protocol.RESP_OK}
    assert sorted(cid for _, cid, _ in got) == list(range(1, len(requests) + 1))
    reads = [payload for _, cid, payload in got if cid not in lane_cids]
    assert len(reads) == 200 and all(part.name == big for part in reads)
    order = [cid for _, cid, _ in got if cid in lane_cids]
    assert order == lane_cids, "lane responses must arrive in send order"
    assert stats["net.write_backlogs"] > 0, "the slow path never ran"
    assert stats["net.slow_client_disconnects"] == 0


def _net_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("ode-net")]


def test_thread_census_is_independent_of_the_connection_count(db):
    """256 idle connections are one reactor thread and no worker; lane
    work then starts workers on demand, never more than ``workers``."""
    with db.transaction():
        oids = [db.pnew(Part(f"p{k}", 0)).oid for k in range(32)]
    before = _net_threads()
    with ServerThread(db, workers=4) as server:
        socks = [socket.create_connection((server.host, server.port)) for _ in range(256)]
        try:
            assert _wait_stats(db, "net.connections", 256)["net.connections"] == 256
            assert sorted(set(_net_threads()) - set(before)) == ["ode-net-reactor"]
            for k, oid in enumerate(oids):  # 32 lanes busy at once
                socks[k].sendall(b"".join(
                    protocol.build_frame(opcode, cid, payload)
                    for cid, (opcode, payload) in enumerate([
                        (protocol.OP_BEGIN, None),
                        (protocol.OP_WRITE, (oid, "weight", k)),
                        (protocol.OP_COMMIT, None),
                    ], start=1)
                ))
            assert _wait_stats(db, "net.commits", 32)["net.commits"] == 32
            lanes = [n for n in set(_net_threads()) - set(before) if "lane" in n]
            assert 1 <= len(lanes) <= 4
        finally:
            for sock in socks:
                sock.close()
    assert set(_net_threads()) <= set(before), "stop() must join every thread"


def test_reactor_busy_gauge_sees_blocking_work_on_the_reactor(served):
    """``net.reactor_max_busy_ms`` is the detector tests/net/conftest.py
    reads: work that blocks the reactor (here a health check made to
    sleep) must show in it.  That ordinary traffic stays under 100 ms is
    wall-clock, so only the conftest fixture's debug pass asserts it."""
    db, host, port, oid = served
    with ServerThread(db) as server:
        async def run():
            async with await OdeConnection.open(server.host, server.port) as conn:
                await conn.read(oid, "weight")
                server.stats.reactor_max_busy_ms = 0.0
                real = server.server._health_payload
                server.server._health_payload = lambda: time.sleep(0.15) or real()
                await conn.health()
                return (await conn.stats())["net.reactor_max_busy_ms"]

        blocked = asyncio.run(run())
        server.stats.reactor_max_busy_ms = 0.0  # this one was on purpose
    assert blocked >= 150


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
    response lands on the future that sent it (correlation ids).  The
    slow one is an autocommit WRITE waiting for a lock another
    connection's open transaction holds; reads overtake it (WRITE is
    passable) and the ping is an inline echo."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as holder, \
                await OdeConnection.open(host, port) as conn:
            await holder.begin()
            await holder.send(protocol.OP_WRITE, (oid, "weight", 11))  # X lock, held
            slow = conn.send(protocol.OP_WRITE, (oid, "weight", 12))
            fast = [conn.send(protocol.OP_READ, (oid, "weight")) for _ in range(8)]
            echo = conn.send(protocol.OP_PING, {"tag": "quick"})
            vals = await asyncio.gather(*fast)
            quick = await echo
            assert not slow.done(), "the blocked write must still be in flight"
            await holder.commit()
            return vals, quick, await slow, await conn.read(oid, "weight")

    vals, quick, slow, after = asyncio.run(run())
    assert vals == [10] * 8
    assert quick == {"tag": "quick"}
    assert slow is None and after == 12
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


# -- the per-connection FIFO lane ----------------------------------------------


def _lane_counters(db):
    stats = db.stats()
    return stats["net.lane_runs"], stats["net.lane_frames"]


def test_transaction_burst_is_one_lane_run_and_one_socket_write(served):
    """A whole transaction sent as one burst executes FIFO in a single
    lane run -- one worker wake-up -- and its five responses leave in a
    single socket write."""
    db, host, port, oid = served
    with ServerThread(db) as server:
        writes = []
        real_write = server.server._write
        server.server._write = lambda conn, buf: (
            writes.append(len(buf)), real_write(conn, buf)
        )

        async def run():
            async with await OdeConnection.open(server.host, server.port) as conn:
                await conn.ping("warm")
                before = _lane_counters(db)
                writes.clear()
                order = []
                burst = [
                    conn.send(protocol.OP_BEGIN),
                    conn.send(protocol.OP_WRITE, (oid, "weight", 21)),
                    conn.send(protocol.OP_READ, (oid, "weight")),
                    conn.send(protocol.OP_WRITE, (oid, "weight", 22)),
                    conn.send(protocol.OP_COMMIT),
                ]
                for at, future in enumerate(burst):
                    future.add_done_callback(lambda _f, at=at: order.append(at))
                results = await asyncio.gather(*burst)
                after, sizes = _lane_counters(db), list(writes)
                return results, order, before, after, sizes, await conn.read(oid, "weight")

        results, order, before, after, writes, final = asyncio.run(run())
    assert isinstance(results[0], int)  # the txid
    assert results[1:] == [None, 21, None, None]
    assert order == [0, 1, 2, 3, 4], "responses must come back in send order"
    assert after[0] - before[0] == 1, "a burst must cost exactly one lane run"
    assert after[1] - before[1] == 5
    assert len(writes) == 1, f"expected one socket write, saw {writes}"
    assert final == 22


def test_reads_count_the_reactor_recvs_a_burst_arrives_in(served):
    """``net.reads`` counts reactor ``recv`` calls that returned data:
    sixteen pings sent in one loop turn are one client write and arrive
    in one read; an awaited ping is a read of its own.  ``net.requests``
    / ``net.reads`` is the frames one read carried (E13.1's gate)."""
    db, host, port, _oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            await conn.ping("warm")
            before = db.stats()
            await asyncio.gather(*(conn.send(protocol.OP_PING, i) for i in range(16)))
            burst = db.stats()
            await conn.ping("alone")
            return before, burst, db.stats()

    before, burst, after = asyncio.run(run())
    assert burst["net.requests"] - before["net.requests"] == 16
    assert burst["net.reads"] - before["net.reads"] == 1
    assert after["net.reads"] - burst["net.reads"] == 1


def test_awaited_stateful_frames_cost_one_lane_run_each(served):
    """Request/response traffic: every awaited stateful frame is exactly
    one lane run.  BEGIN, and a WRITE inside the transaction, are not
    awaited: they ride with the READ behind them (one run of three
    frames), and the COMMIT is a run of its own."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            await conn.begin()  # the first also awaits a health check
            await conn.abort()
            before = _lane_counters(db)
            await conn.begin()
            after_begin = _lane_counters(db)
            await conn.write(oid, "weight", 31)
            assert await conn.read(oid, "weight") == 31  # in the txn: lane
            await conn.commit()
            return before, after_begin, _lane_counters(db)

    before, after_begin, after = asyncio.run(run())
    assert after_begin == before, "a BEGIN must ride with the frames behind it"
    assert (after[0] - before[0], after[1] - before[1]) == (2, 4)


def test_read_pipelined_behind_begin_and_write_sees_its_own_write(served):
    """The relaxed pipelining contract: a read sent behind BEGIN + WRITE
    queues behind them on the lane and resolves inside the transaction."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            conn.send(protocol.OP_BEGIN)
            conn.send(protocol.OP_WRITE, (oid, "weight", 55))
            inside = await conn.send(protocol.OP_READ, (oid, "weight"))
            await conn.abort()
            return inside, await conn.read(oid, "weight")

    assert asyncio.run(run()) == (55, 10)


def test_failed_write_dooms_its_transaction(served):
    """A WRITE that fails inside a transaction dooms it: the WRITE
    behind it answers the same error unexecuted, and the COMMIT rolls
    back and answers it too, so the first WRITE does not land either.
    The next transaction on the connection runs normally."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            conn.send(protocol.OP_BEGIN)
            first = conn.send(protocol.OP_WRITE, (oid, "weight", 41))
            bad = conn.send(protocol.OP_WRITE, ("not-an-oid", "weight", 0))
            second = conn.send(protocol.OP_WRITE, (oid, "weight", 42))
            commit = conn.send(protocol.OP_COMMIT)
            assert await first is None
            for future in (bad, second, commit):
                with pytest.raises(ProtocolError, match="write target must be"):
                    await future
            doomed = await conn.read(oid, "weight")
            conn.send(protocol.OP_BEGIN)
            conn.send(protocol.OP_WRITE, (oid, "weight", 43))
            await conn.send(protocol.OP_COMMIT)
            return doomed, await conn.read(oid, "weight")

    assert asyncio.run(run()) == (10, 43)


def test_abort_after_a_doomed_frame_answers_ok_and_frees_the_lock(served):
    """ABORT of a doomed transaction rolls it back and answers OK; the
    X lock its good WRITE took is free for another connection at once."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as a, \
                await OdeConnection.open(host, port) as b:
            a.send(protocol.OP_BEGIN)
            a.send(protocol.OP_WRITE, (oid, "weight", 50))  # takes the X lock
            bad = a.send(protocol.OP_WRITE, ("not-an-oid", "weight", 0))
            abort = a.send(protocol.OP_ABORT)
            with pytest.raises(ProtocolError):
                await bad
            assert await abort is None
            await b.write(oid, "weight", 51, deadline=2.0)  # autocommit: waits
            return await a.read(oid, "weight")

    assert asyncio.run(run()) == 51


def test_read_behind_a_doomed_frame_answers_the_error(served):
    """Reads and BEGIN behind a failed WRITE answer its error, not a
    value: nothing the doomed transaction could see is served, inline or
    on the lane, until its ABORT."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            conn.send(protocol.OP_BEGIN)
            conn.send(protocol.OP_WRITE, (oid, "weight", 60))
            bad = conn.send(protocol.OP_WRITE, ("not-an-oid", "weight", 0))
            pipelined = conn.send(protocol.OP_READ, (oid, "weight"))
            begin = conn.send(protocol.OP_BEGIN)
            for future in (bad, pipelined, begin):
                with pytest.raises(ProtocolError):
                    await future
            with pytest.raises(ProtocolError):
                await conn.read(oid, "weight")  # sent after the doom, alone
            assert await conn.ping("up") == "up"  # pings still answer
            await conn.abort()
            return await conn.read(oid, "weight")

    assert asyncio.run(run()) == 10


def test_failed_newversion_dooms_its_transaction(served):
    """A NEWVERSION that fails inside a transaction dooms it just as a
    failed WRITE does: the COMMIT answers its error with its type."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            conn.send(protocol.OP_BEGIN)
            conn.send(protocol.OP_WRITE, (oid, "weight", 70))
            bad = conn.send(protocol.OP_NEWVERSION, Vid(oid, 99))
            after = conn.send(protocol.OP_WRITE, (oid, "weight", 71))
            commit = conn.send(protocol.OP_COMMIT)
            for future in (bad, after, commit):
                with pytest.raises(UnknownVersionError):
                    await future
            return await conn.read(oid, "weight")

    assert asyncio.run(run()) == 10
    assert [v.vid.serial for v in db.versions(oid)] == [1]


def test_a_write_shed_inside_a_transaction_dooms_it(served):
    """Admission control refuses a WRITE before queueing it; inside a
    transaction the refusal dooms the transaction at the WRITE's place
    in the lane, so the COMMIT behind it answers ServerOverloadedError
    and commits nothing (the write ahead of it included)."""
    db, host, port, oid = served
    with db.transaction():
        other = db.pnew(Part("nut", 1)).oid
    with ServerThread(db, max_inflight=1) as server:

        async def run():
            holder = await OdeConnection.open(server.host, server.port)
            conn = await OdeConnection.open(server.host, server.port)
            try:
                await holder.begin()
                # Awaited (write() would not wait), and only once the BEGIN
                # ahead of it has its answer: one slot per connection.
                await holder.request(protocol.OP_WRITE, (oid, "weight", 11))  # X lock
                await conn.begin()
                assert await conn.read(other, "weight") == 1  # the BEGIN has run
                first = conn.send(protocol.OP_WRITE, (oid, "weight", 12))  # waits
                shed = conn.send(protocol.OP_WRITE, (other, "weight", 2))
                with pytest.raises(ServerOverloadedError):
                    await shed
                await holder.commit()
                assert await first is None
                with pytest.raises(ServerOverloadedError):
                    await conn.commit()
                return [await conn.read(o, "weight") for o in (oid, other)]
            finally:
                await holder.close()
                await conn.close()

        assert asyncio.run(run()) == [11, 1]


class _ParkedStats:
    """A stats source that blocks until released (a slow ``db.stats()``)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.armed = True

    def __call__(self):
        if self.armed:
            self.armed = False  # park the first caller only
            self.entered.set()
            assert self.release.wait(10.0), "parked stats source never released"
        return {}


def test_stats_runs_on_the_lane_not_on_the_event_loop(served):
    """Regression: OP_STATS used to call ``db.stats()`` on the event
    loop, so one slow stats source stalled every connection.  With A's
    STATS parked, B's inline reads and health checks still complete."""
    db, host, port, oid = served
    parked = _ParkedStats()
    db.add_stats_source(parked)

    async def run():
        a = await OdeConnection.open(host, port)
        b = await OdeConnection.open(host, port)
        try:
            pending = a.send(protocol.OP_STATS)
            assert await asyncio.to_thread(parked.entered.wait, 5.0)
            vals = [await b.read(oid, "weight", deadline=2.0) for _ in range(3)]
            health = await b.health(deadline=2.0)
            assert not pending.done(), "A's STATS must still be parked"
            parked.release.set()
            return vals, health, await pending
        finally:
            parked.release.set()
            await a.close()
            await b.close()

    try:
        vals, health, stats = asyncio.run(run())
    finally:
        db.remove_stats_source(parked)
    assert vals == [10, 10, 10]
    assert health["status"] == "ok"
    assert stats["net.connections"] == 2


def test_commit_ack_does_not_wait_on_a_lock_blocked_follower(served):
    """Acks are batched only inside an open transaction.  A pipelines
    COMMIT, BEGIN, WRITE(o2) while B holds o2's X lock: the COMMIT's ack
    arrives at once, not when the blocked WRITE behind it returns."""
    db, host, port, oid = served

    async def run():
        a = await OdeConnection.open(host, port)
        b = await OdeConnection.open(host, port)
        try:
            o2 = await b.pnew(Part("nut", 1))
            await b.begin()
            await b.send(protocol.OP_WRITE, (o2, "weight", 2))  # B holds o2's X lock
            await a.begin()
            await a.write(oid, "weight", 71)
            commit = a.send(protocol.OP_COMMIT)
            a.send(protocol.OP_BEGIN)
            blocked = a.send(protocol.OP_WRITE, (o2, "weight", 3))
            await asyncio.wait_for(asyncio.shield(commit), 1.0)
            assert not blocked.done(), "the follower must still be waiting"
            await b.abort()
            await asyncio.wait_for(blocked, 5.0)
            await a.abort()
            return await b.read(oid, "weight")
        finally:
            await a.close()
            await b.close()

    assert asyncio.run(run()) == 71


def test_reads_overtake_autocommit_work_but_not_session_state_changes(served):
    """A read outside a transaction stays inline while the lane holds
    only frames it may pass (here a parked STATS) -- it queues behind a
    frame that decides what it sees (a snapshot pin)."""
    db, host, port, oid = served
    parked = _ParkedStats()
    db.add_stats_source(parked)

    async def run():
        async with await OdeConnection.open(host, port) as a:
            stats = a.send(protocol.OP_STATS)
            assert await asyncio.to_thread(parked.entered.wait, 5.0)
            passed = await a.read(oid, "weight", deadline=2.0)  # lane busy: inline
            pin = a.send(protocol.OP_SNAPSHOT, {"pin": True})
            held = a.send(protocol.OP_READ, (oid, "weight"))
            await a.health(deadline=2.0)  # the loop has served that chunk
            assert not (stats.done() or pin.done() or held.done())
            parked.release.set()
            await stats
            return passed, await held, await pin

    try:
        passed, held, epoch = asyncio.run(run())
    finally:
        parked.release.set()
        db.remove_stats_source(parked)
    assert (passed, held) == (10, 10) and epoch is not None


def test_disconnect_mid_burst_drops_queued_frames_and_frees_locks(served):
    """Teardown rides the lane: frames queued behind a dead connection
    never execute (``net.lane_dropped`` counts them), the open
    transaction aborts only after the in-flight op has returned, and the
    EXCLUSIVE lock is free for the next connection."""
    db, host, port, oid = served
    parked = _ParkedStats()
    db.add_stats_source(parked)
    burst = b"".join(
        protocol.build_frame(opcode, cid, payload)
        for cid, (opcode, payload) in enumerate(
            [
                (protocol.OP_BEGIN, None),
                (protocol.OP_WRITE, (oid, "weight", 999)),
                (protocol.OP_STATS, None),  # parks the lane mid-burst
                (protocol.OP_WRITE, (oid, "weight", 1000)),
                (protocol.OP_COMMIT, None),
            ],
            start=1,
        )
    )

    async def observe():
        async with await OdeConnection.open(host, port) as b:
            sock = socket.create_connection((host, port))
            try:
                sock.sendall(burst)
                assert await asyncio.to_thread(parked.entered.wait, 5.0)
            finally:
                sock.close()  # dies with STATS executing and two frames queued
            for _ in range(500):  # the server has seen the EOF
                if (await b.health())["connections"] == 1:
                    break
                await asyncio.sleep(0.01)
            else:
                pytest.fail("server never noticed the disconnect")
            parked.release.set()
            for _ in range(500):
                if (await b.stats())["net.sessions"] == 1:
                    break
                await asyncio.sleep(0.01)
            assert await b.read(oid, "weight") == 10, "the dropped COMMIT ran"
            await b.begin(deadline=2.0)
            await b.write(oid, "weight", 11, deadline=2.0)  # X lock is free
            await b.commit(deadline=2.0)
            return await b.stats()

    try:
        stats = asyncio.run(observe())
    finally:
        parked.release.set()
        db.remove_stats_source(parked)
    assert stats["net.lane_dropped"] == 2, "WRITE + COMMIT must be dropped unexecuted"
    assert stats["net.sessions"] == 1 and stats["net.connections"] == 1
    assert stats["net.inflight"] == 1  # b's own STATS, nothing leaked from the dead lane


def test_lane_handoff_stress_keeps_fifo_and_loses_nothing(db):
    """More connections than cores, a 10 us switch interval, and every
    connection alternating pipelined bursts with awaited ops, so chunks
    keep arriving exactly while a runner is posting its buffer back and
    the lane flips between idle and armed.  Per-session FIFO must hold
    (a read inside the transaction sees the previous commit, a read
    queued behind COMMIT sees this one), no frame may be lost or run
    twice, and the gauges must return to zero."""
    conns, rounds = 8, 30
    with db.transaction():
        oids = [db.pnew(Part(f"p{k}", 0)).oid for k in range(conns)]

    async def drive(host, port, oid):
        async with await OdeConnection.open(host, port) as conn:
            for j in range(rounds):
                if j % 3 == 2:  # awaited: BEGIN rides with the read
                    await conn.begin()
                    inside = await conn.read(oid, "weight")
                    await conn.write(oid, "weight", j + 1)
                    await conn.commit()
                    after = await conn.read(oid, "weight")
                else:  # one burst: everything rides a single lane run
                    conn.send(protocol.OP_BEGIN)
                    seen = conn.send(protocol.OP_READ, (oid, "weight"))
                    conn.send(protocol.OP_WRITE, (oid, "weight", j + 1))
                    done = conn.send(protocol.OP_COMMIT)
                    behind = conn.send(protocol.OP_READ, (oid, "weight"))
                    assert await conn.ping(j) == j  # overtakes the queued work
                    inside, _, after = await asyncio.gather(seen, done, behind)
                assert (inside, after) == (j, j + 1)

    async def swarm(host, port):
        await asyncio.wait_for(
            asyncio.gather(*(drive(host, port, oid) for oid in oids)), timeout=60.0
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServerThread(db) as server:
            asyncio.run(swarm(server.host, server.port))
            stats = _wait_stats(db, "net.connections", 0)
    finally:
        sys.setswitchinterval(interval)
    assert stats["net.connections"] == 0 and stats["net.inflight"] == 0
    assert stats["net.errors"] == 0
    assert stats["net.requests"] == stats["net.responses"]
    assert stats["net.commits"] == conns * rounds
    assert stats["net.lane_dropped"] == 0
    with db.snapshot() as snap:
        assert [snap.read_attr(snap.latest_vid(o), "weight") for o in oids] == (
            [rounds] * conns
        )


def test_session_closed_under_the_server_answers_errors(served):
    """``db.close()`` (or anyone) closing a served session must turn its
    queued frames into typed errors -- one lane run per burst, not a
    runner that re-arms forever on a session it cannot activate -- and
    the connection still tears down cleanly.  A BEGIN that fails that
    way dooms the WRITE behind it, and ``commit()`` raises the error."""
    db, host, port, oid = served

    async def run():
        async with await OdeConnection.open(host, port) as conn:
            assert await conn.read(oid, "weight") == 10
            await conn.begin()  # the first also awaits a health check
            await conn.abort()
            for session in list(db._sessions):
                session.close()
            before = _lane_counters(db)
            burst = [conn.send(protocol.OP_WRITE, (oid, "weight", n)) for n in (1, 2)]
            results = await asyncio.gather(*burst, return_exceptions=True)
            assert [type(r) for r in results] == [SessionStateError] * 2
            await conn.begin()
            await conn.write(oid, "weight", 3)
            with pytest.raises(SessionStateError):
                await conn.commit()
            assert await conn.ping("alive") == "alive"
            return before, _lane_counters(db)

    before, after = asyncio.run(run())
    assert (after[0] - before[0], after[1] - before[1]) == (2, 5)
    with db.snapshot() as snap:
        assert snap.read_attr(snap.latest_vid(oid), "weight") == 10
    assert _wait_stats(db, "net.connections", 0)["net.connections"] == 0


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
            holder = await OdeConnection.open(server.host, server.port)
            conn = await OdeConnection.open(server.host, server.port)
            try:
                await holder.begin()
                # Awaited, and only once the BEGIN ahead of it is answered.
                await holder.request(protocol.OP_WRITE, (oid, "weight", 11))  # X lock
                # An autocommit write waiting for that lock occupies the
                # connection's single in-flight slot.
                slow = conn.send(protocol.OP_WRITE, (oid, "weight", 12))
                with pytest.raises(ServerOverloadedError):
                    await conn.write(oid, "weight", 13)
                await holder.commit()
                assert await slow is None  # the slot holder finished
                assert await conn.read(oid, "weight") == 12  # 13 never ran
                assert await conn.ping("after") == "after"  # conn still fine
            finally:
                await holder.close()
                await conn.close()

        asyncio.run(run())
        assert db.stats()["net.shed"] >= 1  # while the server is attached


def test_drain_refuses_new_mutations_but_finishes_open_txns(served):
    """Graceful drain: the open transaction runs to commit, an idle
    session's new BEGIN is refused with the retryable draining error
    (its ``commit()`` raises it), and health keeps answering (reporting
    draining) throughout."""
    db, host, port, oid = served
    server = ServerThread(db).start()
    try:

        async def run():
            a = await OdeConnection.open(server.host, server.port)
            b = await OdeConnection.open(server.host, server.port)
            try:
                await a.begin()
                await a.write(oid, "weight", 77)
                assert await a.read(oid, "weight") == 77  # open server-side
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
                await b.begin()
                await b.write(oid, "weight", 78)  # behind the refused BEGIN
                with pytest.raises(ServerDrainingError) as refused:
                    await b.commit()
                assert is_retryable(refused.value)
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
