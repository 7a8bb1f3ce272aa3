"""A wire transaction is one round trip: BEGIN rides with what follows it.

``OdeConnection.begin()`` does not wait for its answer, so ``begin,
write, write, commit`` is one socket write, one reactor read and one
lane run (counted here), and a BEGIN that the server refuses (drain,
shed) or that fails (a transaction already open, a closed session)
dooms the frames behind it: none of them runs -- as an autocommit least
of all -- and the next awaited frame, or ``commit()``, raises the
BEGIN's error with its type.  Every test runs on the embedded database
and on a 4-shard router, and checks what landed with an in-process
snapshot.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    ServerDrainingError,
    ServerOverloadedError,
    SessionStateError,
    TransactionStateError,
)
from repro.net import protocol
from repro.net.client import OdeConnection, is_retryable
from repro.net.server import ServerThread
from tests.conftest import Part

ENGINE_KINDS = ("database", "router-4")


@pytest.fixture
def parts(db):
    """Two Parts (weights 10 and 20), on different shards of a router."""
    with db.transaction():
        oids = [db.pnew(Part(f"p{i}", 10 * (i + 1))).oid for i in range(2)]
    placement = getattr(db, "placement", None)
    assert placement is None or len({placement.shard_of(o) for o in oids}) == 2
    return oids


def _weights(db, oids) -> list[int]:
    with db.snapshot() as snap:
        return [snap.read_attr(snap.latest_vid(oid), "weight") for oid in oids]


def _hops(db) -> tuple[int, int]:
    stats = db.stats()
    return stats["net.reads"], stats["net.lane_runs"]


async def _open(server) -> OdeConnection:
    """A connection whose first ``begin()`` (which also awaits a health
    check for the server's ``max_inflight``) is behind it."""
    conn = await OdeConnection.open(server.host, server.port)
    await conn.begin()
    await conn.abort()
    return conn


def test_a_transaction_costs_one_read_and_one_lane_run(db, parts):
    """``begin/write/write/commit``: one reactor read, one lane run; and
    ``begin/newversion/write/commit`` too (the write targets the promise)."""
    a, b = parts

    async def run(server):
        async with await _open(server) as conn:
            start = _hops(db)
            await conn.begin()
            await conn.write(a, "weight", 11)
            await conn.write(b, "weight", 21)
            await conn.commit()
            written = _hops(db)
            await conn.begin()
            vid = await conn.newversion(a)
            await conn.write(vid, "weight", 12)
            await conn.commit()
            return start, written, _hops(db)

    with ServerThread(db) as server:
        start, written, versioned = asyncio.run(run(server))
    assert (written[0] - start[0], written[1] - start[1]) == (1, 1)
    assert (versioned[0] - written[0], versioned[1] - written[1]) == (1, 1)
    assert _weights(db, parts) == [12, 21]


def test_a_begin_refused_by_a_drain_dooms_the_write_behind_it(db, parts):
    a, b = parts

    async def run(server):
        async with await _open(server) as conn, await _open(server) as other:
            await other.begin()
            await other.read(a, "weight")  # its BEGIN ran: it holds the drain open
            drain = asyncio.ensure_future(asyncio.to_thread(server.drain, 5.0))
            while not (await other.health())["draining"]:
                await asyncio.sleep(0.01)
            await conn.begin()
            await conn.write(b, "weight", 99)
            with pytest.raises(ServerDrainingError) as refused:
                await conn.commit()
            assert _weights(db, parts) == [10, 20]
            await other.commit()
            await drain
            return refused.value

    with ServerThread(db) as server:
        error = asyncio.run(run(server))
    assert is_retryable(error)
    assert _weights(db, parts) == [10, 20]


def test_a_begin_inside_an_open_transaction_dooms_both(db, parts):
    """The second BEGIN fails, nothing behind it runs in the transaction
    already open, the next awaited frame raises its error, and the
    COMMIT rolls the open transaction back too; a second time, ABORT
    answers OK."""
    a, b = parts

    async def run(server):
        async with await _open(server) as conn:
            await conn.begin()
            await conn.write(a, "weight", 11)
            await conn.begin()
            await conn.write(b, "weight", 21)
            with pytest.raises(TransactionStateError):
                await conn.read(b, "weight")
            with pytest.raises(TransactionStateError):
                await conn.commit()
            assert _weights(db, parts) == [10, 20]
            await conn.begin()
            await conn.begin()
            await conn.write(a, "weight", 12)
            await conn.abort()
            assert _weights(db, parts) == [10, 20]
            await conn.begin()  # the connection is whole again
            await conn.write(a, "weight", 13)
            await conn.commit()

    with ServerThread(db) as server:
        asyncio.run(run(server))
    assert _weights(db, parts) == [13, 20]


def test_a_begin_on_a_closed_session_dooms_the_write_behind_it(db, parts):
    a, _b = parts

    async def run(server):
        async with await _open(server) as conn:
            for session in list(db._sessions):
                session.close()
            await conn.begin()
            await conn.write(a, "weight", 11)
            with pytest.raises(SessionStateError):
                await conn.commit()
            assert await conn.ping("alive") == "alive"

    with ServerThread(db) as server:
        asyncio.run(run(server))
    assert _weights(db, parts) == [10, 20]


def test_a_shed_begin_dooms_the_write_behind_it(db, parts):
    """At ``max_inflight=1`` a BEGIN behind a parked autocommit write is
    shed.  A write sent once the slot is free again is admitted -- and
    must not run as an autocommit: ``commit()`` raises the shed error."""
    a, b = parts

    async def run(server):
        async with await _open(server) as holder, await _open(server) as conn:
            await holder.begin()
            await holder.request(protocol.OP_WRITE, (a, "weight", 11))  # X lock
            slow = conn.send(protocol.OP_WRITE, (a, "weight", 12))  # parks: the slot
            await conn.begin()  # shed
            await conn.ping("the reactor has refused it")
            await holder.commit()
            assert await slow is None
            await conn.write(b, "weight", 21)  # admitted, behind the doom
            with pytest.raises(ServerOverloadedError) as shed:
                await conn.commit()
            return shed.value

    with ServerThread(db, max_inflight=1) as server:
        error = asyncio.run(run(server))
        shed = db.stats()["net.shed"]
    assert is_retryable(error) and shed >= 1
    assert _weights(db, parts) == [12, 20]
