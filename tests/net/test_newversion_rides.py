"""A newversion rides too: inside a wire transaction it answers a promise.

``OdeConnection.newversion()`` inside a transaction does not wait for
its Vid: it returns a :class:`~repro.net.client.VidPromise` at once, and
the frames behind it may target the promise -- on the wire ``(cid,)``,
the NEWVERSION's correlation id, which the server's lane redeems for the
Vid that NEWVERSION answered in the same transaction.  So derive-and-edit
(``begin/newversion/write/commit``) is one round trip
(``test_begin_rides.py`` counts it).  Every test runs on the embedded
database and on a 4-shard router, and checks what landed with an
in-process snapshot.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.identity import Vid
from repro.errors import ProtocolError, TransactionStateError, UnknownObjectError
from repro.net import protocol
from repro.net.client import VidPromise
from repro.net.server import ServerThread
from tests.net.test_begin_rides import _open, _weights, parts  # noqa: F401 - fixture

ENGINE_KINDS = ("database", "router-4")


def _serials(db, oid) -> list[int]:
    return [vref.vid.serial for vref in db.versions(oid)]


def _weight(db, vid: Vid) -> int:
    with db.snapshot() as snap:
        return snap.read_attr(vid, "weight")


def _serve(db, run):
    with ServerThread(db) as server:
        return asyncio.run(run(server))


def test_a_promise_is_a_target_for_write_read_pdelete_and_newversion(db, parts):
    a, _b = parts

    async def run(server):
        async with await _open(server) as conn:
            await conn.begin()
            first = await conn.newversion(a)
            await conn.write(first, "weight", 11)
            assert await conn.read(first, "weight") == 11
            second = await conn.newversion(first)  # derived from the promise
            await conn.write(second, "weight", 12)
            gone = await conn.newversion(a)
            await conn.pdelete(gone)
            await conn.commit()
            return first.vid, second.vid, gone.vid

    first, second, gone = _serve(db, run)
    assert _serials(db, a) == [1, first.serial, second.serial]
    assert gone.serial not in _serials(db, a)
    assert (_weight(db, first), _weight(db, second)) == (11, 12)
    assert db.graph(a).dprevious(second.serial) == first.serial


def test_a_failed_newversion_dooms_what_rides_behind_it(db, parts):
    """NEWVERSION of a deleted object fails: the writes behind it (one of
    them to its promise) never land, ``commit()`` raises its error with
    its type, and so does the promise."""
    a, b = parts

    async def run(server):
        async with await _open(server) as conn:
            await conn.begin()
            await conn.pdelete(b)
            await conn.commit()
            await conn.begin()
            await conn.write(a, "weight", 11)
            doomed = await conn.newversion(b)
            await conn.write(doomed, "weight", 99)
            await conn.write(a, "weight", 12)
            with pytest.raises(UnknownObjectError):
                await conn.commit()
            with pytest.raises(UnknownObjectError):
                doomed.serial
            assert _weights(db, [a]) == [10]
            await conn.begin()  # the connection is whole again
            await conn.write(a, "weight", 13)
            await conn.commit()

    _serve(db, run)
    assert _weights(db, [a]) == [13]
    assert _serials(db, a) == [1]


def test_a_promise_answers_once_its_newversion_has(db, parts):
    """Before the answer ``.serial`` raises; ``await`` gives the Vid.  The
    promise is no Vid and does not compare equal to one."""
    a, _b = parts

    async def run(server):
        async with await _open(server) as conn:
            await conn.begin()
            promise = await conn.newversion(a)
            assert type(promise) is VidPromise
            with pytest.raises(TransactionStateError):
                promise.serial
            vid = await promise
            await conn.commit()
            assert type(vid) is Vid and not isinstance(promise, Vid)
            assert (promise.vid, promise.oid, promise.serial) == (vid, a, vid.serial)
            assert promise != vid
            outside = await conn.newversion(a)  # no transaction: waits, a Vid
            return vid, outside

    vid, outside = _serve(db, run)
    assert type(outside) is Vid and outside.serial > vid.serial
    assert _serials(db, a) == [1, vid.serial, outside.serial]


@pytest.mark.parametrize("stale", [False, True])
def test_an_unknown_promise_dooms_the_transaction(db, parts, stale):
    """A ``(cid,)`` that names no NEWVERSION of the open transaction --
    a cid never sent, or one answered in a transaction already over --
    fails its write and dooms the transaction."""
    a, b = parts

    async def run(server):
        async with await _open(server) as conn:
            await conn.begin()
            earlier = await conn.newversion(a)
            await conn.commit()
            await conn.begin()
            await conn.write(a, "weight", 11)
            cid = earlier.cid if stale else 10**6
            bad = conn.send(protocol.OP_WRITE, ((cid,), "weight", 5))
            await conn.write(b, "weight", 21)
            with pytest.raises(ProtocolError):
                await conn.commit()
            with pytest.raises(ProtocolError):
                await bad
            return earlier.vid

    earlier = _serve(db, run)
    assert _weights(db, parts) == [10, 20]
    assert _weight(db, earlier) == 10


def test_an_answered_promise_travels_as_its_vid_after_commit(db, parts):
    """The server forgets a transaction's promises at its end; a promise
    answered in it still targets its version later, in a transaction or
    out of one."""
    a, _b = parts

    async def run(server):
        async with await _open(server) as conn:
            await conn.begin()
            promise = await conn.newversion(a)
            await conn.commit()
            await conn.begin()
            await conn.write(promise, "weight", 13)
            await conn.commit()
            read = await conn.read(promise, "weight")
            await conn.pdelete(promise)
            return promise.vid, read

    vid, read = _serve(db, run)
    assert read == 13
    assert _serials(db, a) == [1]
    assert vid.serial == 2
