"""``export()`` is one door out on both engines.

The same script run on a :class:`~repro.core.database.Database` and on a
one-shard :class:`~repro.shard.ShardedDatabase` must leave the same
version histories behind -- compared through ``export()``, decoded into
the reference model's shape (:func:`repro.verify.model.history`).
"""

from __future__ import annotations

import pytest

from repro import Database, PersistentObject, StoragePolicy, persistent
from repro.core import gc
from repro.core.identity import Vid
from repro.shard import ShardedDatabase
from repro.storage.serialization import decode
from repro.verify.model import history


@persistent(name="test_export.Doc")
class Doc(PersistentObject):
    def __init__(self, n: int = 0, body: str = "") -> None:
        self.n = n
        self.body = body


def _script(db) -> None:
    """pnew, newversion, attribute writes, one version's pdelete, a tag
    (an object of its own)."""
    a = db.pnew(Doc(1, "a"))
    db.pnew(Doc(2, "x" * 2000))  # a blob-sized payload
    pinned = db.newversion(a)
    pinned.n = 10
    db.newversion(a)
    a.body = "latest"
    db.pdelete(db.versions(a)[1])
    gc.tag_version(db, db.versions(a)[0], "first")


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_one_script_exports_the_same_on_both_engines(tmp_path, kind):
    policy = StoragePolicy(kind=kind)
    with Database(tmp_path / "db", policy=policy) as db:
        _script(db)
        plain = history(db.export(), decode)
    with ShardedDatabase(tmp_path / "router", nshards=1, policy=policy) as router:
        _script(router)
        routed = history(router.export(), decode)
    assert routed == plain
    (a, (a_max, a_rows)), (_, (b_max, b_rows)), (_, tag) = plain.items()
    assert a_max == 3 and [(s, d) for s, d, _ in a_rows] == [(1, None), (3, 1)]
    assert a_rows[-1][2] == Doc(10, "latest")  # derived from the deleted serial 2
    assert b_max == 1 and b_rows == ((1, None, Doc(2, "x" * 2000)),)
    assert tag == (1, ((1, None, gc.VersionTag(Vid(a, 1), "first")),))


def test_router_export_merges_every_shard_in_oid_order(tmp_path):
    with ShardedDatabase(tmp_path / "router", nshards=3) as router:
        refs = [router.pnew(Doc(i)) for i in range(7)]
        rows = router.export()
        parts = [row for shard in router.shards for row in shard.export()]
    assert [row[0] for row in rows] == sorted(ref.oid for ref in refs)
    assert sorted(rows) == sorted(parts)
