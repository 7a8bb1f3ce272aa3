"""A whole-version READ ships the stored image: the wire did not change.

The server answers ``read(target)`` with the version's stored bytes and
never decodes them; the codec is canonical, so that image is the body
today's decode-and-re-encode produced.  Pinned byte for byte here on
both engines, on the inline lane and inside a transaction, for a
delta-stored older version, a blob-backed one and one holding
references, a set and a dict.  And since the client now does the only
decode, an image it cannot decode fails that one request, never the
connection.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro import Database, PersistentObject, StoragePolicy, persistent
from repro.core.identity import Vid
from repro.core.store import INLINE_PAYLOAD_MAX, VersionStore
from repro.errors import SerializationError
from repro.net import protocol
from repro.net.client import OdeConnection
from repro.net.server import ServerThread
from repro.shard import ShardedDatabase
from repro.storage import serialization

_POLICY = StoragePolicy(kind="delta", keyframe_interval=16)


@persistent(name="tests.wire.Doc")
class Doc(PersistentObject):
    def __init__(self, text: str, extra: object = None) -> None:
        self.text = text
        self.extra = extra


def _open(kind: str, path):
    if kind == "sharded":
        return ShardedDatabase(path, nshards=2, policy=_POLICY)
    return Database(path, policy=_POLICY)


def _three_versions(db) -> list[Vid]:
    """A delta-stored older version, a blob-backed one, and one holding
    references, a set and a dict (plus a big int and a NaN)."""
    with db.transaction():
        chain = db.pnew(Doc("h" * 2000))
        for i in range(2):
            db.newversion(chain).text = "h" * 1000 + str(i) + "h" * 999
        blob = db.pnew(Doc("b" * 600))
        mixed = db.pnew(
            Doc(
                "m",
                {
                    "refs": [chain, db.deref(Vid(chain.oid, 2))],
                    "set": {1, "two", (3, 4)},
                    "map": {"k": [1.5, None, b"\x00raw"], "big": 2**80},
                    "nan": float("nan"),
                },
            )
        )
    delta = Vid(chain.oid, 2)
    assert db.graph(chain.oid).node(2).data[0] == "D"
    assert db.latest_vid(chain.oid) != delta
    big = db.materialize(db.latest_vid(blob.oid))
    assert len(serialization.encode(big)) > INLINE_PAYLOAD_MAX
    return [delta, db.latest_vid(blob.oid), db.latest_vid(mixed.oid)]


def _frames(sock: socket.socket):
    """Each response frame's raw bytes, in arrival order."""
    buf = b""
    while True:
        while len(buf) >= 4 and len(buf) >= 4 + int.from_bytes(buf[:4], "little"):
            end = 4 + int.from_bytes(buf[:4], "little")
            yield buf[:end]
            buf = buf[end:]
        data = sock.recv(64 * 1024)
        assert data, "the server hung up"
        buf += data


@pytest.mark.parametrize("in_txn", [False, True], ids=["inline", "in_txn"])
@pytest.mark.parametrize("kind", ["database", "sharded"])
def test_whole_version_read_frames_are_unchanged(tmp_path, kind, in_txn):
    db = _open(kind, tmp_path / "db")
    try:
        vids = _three_versions(db)
        targets = [t for vid in vids for t in (vid, vid.oid)]
        expected = [
            protocol.build_frame(
                protocol.RESP_OK,
                cid,
                db.materialize(t if isinstance(t, Vid) else db.latest_vid(t)),
            )
            for cid, t in enumerate(targets, start=10)
        ]
        with ServerThread(db) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.settimeout(10)
                frames = _frames(sock)
                if in_txn:
                    sock.sendall(protocol.build_frame(protocol.OP_BEGIN, 1, None))
                    assert next(frames)[6] == protocol.RESP_OK  # opcode after len + magic
                for cid, target in enumerate(targets, start=10):
                    sock.sendall(protocol.build_frame(protocol.OP_READ, cid, (target, None)))
                    assert next(frames) == expected[cid - 10], target
                if in_txn:
                    sock.sendall(protocol.build_frame(protocol.OP_ABORT, 2, None))
                    next(frames)
    finally:
        db.close()


def test_an_undecodable_image_fails_one_read_not_the_connection(tmp_path, monkeypatch):
    db = Database(tmp_path / "db", policy=_POLICY)
    try:
        bad = db.latest_vid(db.pnew(Doc("bad")).oid)
        good = db.pnew(Doc("good")).oid
        rebuild = VersionStore._version_bytes

        def poisoned(store, entry, serial, overlay=None):
            if Vid(entry.oid, serial) == bad:
                return b"\xff"  # no such tag byte in the codec
            return rebuild(store, entry, serial, overlay)

        monkeypatch.setattr(VersionStore, "_version_bytes", poisoned)

        async def run():
            conn = await OdeConnection.open(server.host, server.port, default_deadline=10)
            try:
                with pytest.raises(SerializationError):
                    await conn.read(bad)
                assert (await conn.read(good)).text == "good"
                assert not conn.closed
            finally:
                await conn.close()

        with ServerThread(db) as server:
            asyncio.run(run())
    finally:
        db.close()
