"""Stored payloads on both sides of the inline threshold.

A stored payload (full copy or delta body) of at most
``INLINE_PAYLOAD_MAX`` bytes is its own ``ode.versions`` record; a larger
one is a content-addressed file behind a fixed-size reference.  These
tests drive sizes that straddle every boundary on the way: the heap's
short-record padding (12/13), the reference's own size (42), the
threshold (255/256/257), a page-sized payload, and one over a page.

Objects are raw ``bytes`` (and ``None``): under the full-copy policy the
stored payload is exactly the codec's encoding, so a test picks its
stored size to the byte.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import Database, StoragePolicy
from repro.core.identity import Oid, Vid
from repro.core.store import INLINE_PAYLOAD_MAX, node_header, payload_of
from repro.storage import blobs as blobstore
from repro.storage import serialization
from repro.storage.pages import PAGE_SIZE
from repro.tools.check import check_database
from repro.verify.model import ModelStore

#: Stored sizes the kernel-level tests draw from.  (0 is below the codec's
#: one-byte floor; the record-funnel test below covers it.)
SIZES = (1, 12, 13, blobstore.REF_SIZE, 255, 256, 257, PAGE_SIZE, PAGE_SIZE + 904)

#: The node header the record-funnel tests put in front of their payloads.
HEAD = node_header(Oid(999), 1, None, 0.0, "F")


def value_of_stored_size(size: int, fill: int = 0x61):
    """An object whose encoding is exactly ``size`` bytes."""
    if size == 1:
        return None
    for overhead in (2, 3):  # tag + one- or two-byte length
        value = bytes([fill]) * (size - overhead)
        if len(serialization.encode(value)) == size:
            return value
    raise AssertionError(f"no bytes value encodes to {size} bytes")


def recount(db: Database):
    """(refs by key, inline record count, inline bytes) from ``ode.versions``."""
    refs: dict[str, int] = {}
    inline_records = inline_bytes = 0
    for _rid, record in db.catalog.ensure_heap("ode.versions").scan():
        raw = payload_of(record)
        if blobstore.is_ref(raw):
            key, _size = blobstore.decode_ref(raw)
            refs[key] = refs.get(key, 0) + 1
        else:
            inline_records += 1
            inline_bytes += len(raw)
    return refs, inline_records, inline_bytes


def assert_accounting_exact(db: Database) -> None:
    refs, inline_records, inline_bytes = recount(db)
    entries = db.store.blob_entries()
    live = {k: rc for k, (rc, _s) in entries.items() if rc > 0}
    assert live == refs
    stats = db.store.blob_stats()
    assert stats["blobs.inline_records"] == inline_records
    assert stats["blobs.inline_bytes"] == inline_bytes
    # The byte totals the garbage pacer reads are kept, not summed.
    assert stats["blobs.live_bytes"] == sum(s for rc, s in entries.values() if rc > 0)
    pending = sum(s for rc, s in entries.values() if rc == 0)
    assert stats["blobs.pending_reclaim_bytes"] == pending


# -- the record funnel, size by size ---------------------------------------------


def test_every_size_pair_round_trips_through_the_record_funnel(db):
    """insert a -> rewrite to b -> delete, for every pair of boundary sizes
    (0 included): the record reads back, lands on the side its size says,
    and both the refcounts and the inline counters stay exact."""
    store = db.store
    versions = db.catalog.ensure_heap("ode.versions")
    sizes = (0,) + SIZES
    for a in sizes:
        for b in sizes:
            first, second = bytes([0x41]) * a, bytes([0x42]) * b
            rid = db._mutate(None, lambda log: store._record_write(None, HEAD, first, log))
            raw = versions.read(rid)
            assert blobstore.is_ref(payload_of(raw)) == (a > INLINE_PAYLOAD_MAX)
            assert store._resolve_payload(raw) == first
            db._mutate(None, lambda log: store._record_write(rid, HEAD, second, log))
            raw = versions.read(rid)
            assert blobstore.is_ref(payload_of(raw)) == (b > INLINE_PAYLOAD_MAX)
            assert store._resolve_payload(raw) == second
            assert_accounting_exact(db)
            db._mutate(None, lambda log: store._record_delete(rid, log))
    assert_accounting_exact(db)
    assert db.store.blob_stats()["blobs.inline_records"] == 0


def test_ref_lookalike_is_stored_behind_a_real_reference(tmp_path):
    """A payload of exactly REF_SIZE bytes that starts with the reference
    magic would decode as a reference (to a blob that does not exist) and
    be decref'd on release.  It takes the blob path instead, so the two
    record encodings stay disjoint: store, rewrite, delete, reopen."""
    look = blobstore._REF_MAGIC.ljust(blobstore.REF_SIZE, b"\x07")
    assert blobstore.is_ref(look) and len(look) <= INLINE_PAYLOAD_MAX
    key = blobstore.blob_key(look)
    path = tmp_path / "db"
    db = Database(path)
    store = db.store
    versions = db.catalog.ensure_heap("ode.versions")
    rid = db._mutate(None, lambda log: store._record_write(None, HEAD, look, log))
    raw = versions.read(rid)
    assert blobstore.decode_ref(payload_of(raw)) == (key, len(look))
    assert store._resolve_payload(raw) == look
    assert store.blob_entries()[key] == (1, len(look))
    # Rewrite away (the real reference is dropped, not a phantom one) ...
    db._mutate(None, lambda log: store._record_write(rid, HEAD, b"plain", log))
    assert store.blob_refcount(key) == 0
    assert store._resolve_payload(versions.read(rid)) == b"plain"
    # ... and back, then across a reopen: the recount finds the reference.
    db._mutate(None, lambda log: store._record_write(rid, HEAD, look, log))
    db.close()
    db = Database(path)
    try:
        store = db.store
        raw = db.catalog.ensure_heap("ode.versions").read(rid)
        assert store._resolve_payload(raw) == look
        assert store.blob_entries()[key] == (1, len(look))
        assert_accounting_exact(db)
        db._mutate(None, lambda log: store._record_delete(rid, log))
        assert store.blob_refcount(key) == 0
        db.pnew(None)  # any commit: reclaim waits for the epoch to move on
        assert db.run_gc().candidates_remaining == 0
        assert store.blobs.keys() == []
        assert check_database(db, strict=True).ok
    finally:
        db.close()


def test_payload_crossing_the_threshold_survives_reclaim_and_compaction(tmp_path):
    """Big -> small -> big -> small on one version, each displaced body
    reclaimed: the dead frames are compacted away (survivors copied into a
    fresh pack, the emptied one deleted by the next flush) and everything
    reads back identically before and after a reopen."""
    path = tmp_path / "db"
    db = Database(path)
    keep = db.pnew(value_of_stored_size(3000, 0x6B))
    ref = db.pnew(value_of_stored_size(4096, 0x61))
    vid = db.latest_vid(ref.oid)
    steps = [(12, 0x62), (5000, 0x63), (255, 0x64), (257, 0x65)]
    for size, fill in steps:
        db.write_version(vid, value_of_stored_size(size, fill))
        assert db.reclaim_blobs()[2] == 0  # every displaced body was eligible
        assert db.materialize(vid) == value_of_stored_size(size, fill)
        assert_accounting_exact(db)
    stats = db.stats()
    assert stats["blobs.unlinks"] == 2 and stats["blobs.compactions"] == 2
    assert stats["blobs.bytes_copied_forward"] > 2 * 3000
    assert stats["blobs.packs"] == 1 and stats["blobs.dead_bytes"] == 0
    assert [p.name for p in (path / "blobs").iterdir()] == ["pack-000003"]
    assert check_database(db, strict=True).ok
    db.close()
    with Database(path) as db:
        assert db.materialize(vid) == value_of_stored_size(257, 0x65)
        assert db.materialize(db.latest_vid(keep.oid)) == value_of_stored_size(3000, 0x6B)
        assert db.stats()["blobs.packs"] == 1 and db.stats()["blobs.dead_bytes"] == 0
        assert check_database(db, strict=True).ok


# -- kernel level ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_inline_only_history_writes_no_blob_file(tmp_path, kind):
    """Nothing an all-small history does touches ``blobs/`` or the index."""
    with Database(tmp_path / "db", policy=StoragePolicy(kind=kind)) as db:
        ref = db.pnew(value_of_stored_size(INLINE_PAYLOAD_MAX))
        for fill in range(0x62, 0x6A):
            db.newversion(ref)
            db.write_version(
                db.latest_vid(ref.oid), value_of_stored_size(INLINE_PAYLOAD_MAX, fill)
            )
        db.pdelete(db.versions(ref)[3])
        stats = db.stats()
        assert stats["blobs.puts"] == 0 and stats["blobs.count"] == 0
        assert stats["blobs.inline_records"] == 8
        assert db.store.blobs.pack_count() == 0
        assert db.store.blob_entries() == {}
        assert check_database(db, strict=True).ok


@pytest.mark.parametrize("old_size,new_size", [(13, 255), (256, 257), (257, 12)])
def test_pinned_snapshot_reads_old_bytes_after_a_rewrite(db, old_size, new_size):
    """Stash-before-overwrite holds on the inline path: an inline record is
    overwritten in place (no immutable file keeps the old bytes alive), so
    the pinned reader must be served from the stash."""
    old, new = value_of_stored_size(old_size), value_of_stored_size(new_size, 0x7A)
    ref = db.pnew(old)
    vid = db.latest_vid(ref.oid)
    with db.snapshot() as snap:
        db.write_version(vid, new)
        assert db.materialize(vid) == new
        assert snap.materialize(vid) == old
        db.pdelete(ref)
        assert snap.materialize(vid) == old


class StraddleMachine(RuleBasedStateMachine):
    """Kernel ops with stored sizes on both sides of every boundary, in and
    out of transactions, in lockstep with the sequential reference model."""

    kind = "full"

    def __init__(self) -> None:
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="ode-straddle-")
        self._policy = StoragePolicy(kind=self.kind, keyframe_interval=4)
        self.db = Database(self._dir, policy=self._policy)
        self.model = ModelStore()
        self.txn = None
        self.txn_backup: ModelStore | None = None
        self.savepoint: tuple[int, ModelStore] | None = None
        self.pinned: tuple | None = None  # (snapshot, model as of the pin)
        self.wrote_large = False

    # -- helpers -----------------------------------------------------------

    def _value(self, size: int, fill: int):
        self.wrote_large |= size > INLINE_PAYLOAD_MAX
        return value_of_stored_size(size, fill)

    def _pick(self, pick: int) -> tuple[int, int]:
        key = self.model.keys()[pick % len(self.model.keys())]
        serials = self.model.serials(key)
        return key, serials[(pick // 7) % len(serials)]

    has_objects = precondition(lambda self: self.model.keys())
    in_txn = precondition(lambda self: self.txn is not None)
    no_txn = precondition(lambda self: self.txn is None)

    # -- kernel rules ------------------------------------------------------

    @rule(size=st.sampled_from(SIZES), fill=st.sampled_from([0x61, 0x62]))
    def pnew(self, size: int, fill: int) -> None:
        value = self._value(size, fill)
        ref = self.db.pnew(value)
        self.model.pnew(ref.oid.value, value)

    @has_objects
    @rule(pick=st.integers(0, 2**31), from_latest=st.booleans())
    def newversion(self, pick: int, from_latest: bool) -> None:
        key, serial = self._pick(pick)
        target = Oid(key) if from_latest else Vid(Oid(key), serial)
        vref = self.db.newversion(target)
        new_serial, _base = self.model.newversion(key, None if from_latest else serial)
        assert vref.vid.serial == new_serial

    @has_objects
    @rule(
        pick=st.integers(0, 2**31),
        size=st.sampled_from(SIZES),
        fill=st.sampled_from([0x61, 0x62]),
    )
    def write_version(self, pick: int, size: int, fill: int) -> None:
        key, serial = self._pick(pick)
        value = self._value(size, fill)
        self.db.write_version(Vid(Oid(key), serial), value)
        self.model.write(key, value, serial)

    @has_objects
    @rule(pick=st.integers(0, 2**31))
    def pdelete_version(self, pick: int) -> None:
        key, serial = self._pick(pick)
        self.db.pdelete(Vid(Oid(key), serial))
        self.model.vdelete(key, serial)

    @has_objects
    @rule(pick=st.integers(0, 2**31))
    def pdelete_object(self, pick: int) -> None:
        key, _serial = self._pick(pick)
        self.db.pdelete(Oid(key))
        self.model.odelete(key)

    # -- transactions ------------------------------------------------------

    @no_txn
    @rule()
    def begin(self) -> None:
        self.txn = self.db.begin()
        self.txn_backup = self.model.clone()

    @in_txn
    @rule()
    def commit(self) -> None:
        self.txn.commit()
        self.txn = self.txn_backup = self.savepoint = None

    @in_txn
    @rule()
    def abort(self) -> None:
        self.txn.abort()
        self.model = self.txn_backup
        self.txn = self.txn_backup = self.savepoint = None

    @in_txn
    @rule()
    def set_savepoint(self) -> None:
        self.savepoint = (self.db.savepoint(), self.model.clone())

    @precondition(lambda self: self.savepoint is not None)
    @rule()
    def rollback_to_savepoint(self) -> None:
        savepoint, backup = self.savepoint
        self.db.rollback_to(savepoint)
        self.model = backup
        self.savepoint = (savepoint, backup.clone())

    @no_txn
    @rule()
    def checkpoint_and_reopen(self) -> None:
        """The index is derived: an open rebuilds the very same one from
        the payload records and the files, unreferenced keys included."""
        self._unpin()
        self.db.checkpoint()
        entries = self.db.store.blob_entries()
        candidates = set(self.db.store.gc_candidates())
        self.db.close()
        self.db = Database(self._dir, policy=self._policy)
        assert self.db.store.blob_entries() == entries
        assert set(self.db.store.gc_candidates()) == candidates

    @no_txn
    @rule()
    def reclaim_and_compact(self) -> None:
        """Displaced bodies leave the packs; what a pin still needs is in
        its stash, and dead space is back under the budget."""
        self.db.reclaim_blobs()
        packs = self.db.store.blobs
        assert packs.dead_bytes() <= blobstore.DEAD_BUDGET * packs.live_bytes()

    # -- a pinned reader ---------------------------------------------------

    @no_txn
    @precondition(lambda self: self.pinned is None)
    @rule()
    def pin(self) -> None:
        self.pinned = (self.db.snapshot(), self.model.clone())

    @precondition(lambda self: self.pinned is not None)
    @rule()
    def unpin(self) -> None:
        self._unpin()

    def _unpin(self) -> None:
        if self.pinned is not None:
            self.pinned[0].close()
            self.pinned = None

    # -- invariants ----------------------------------------------------------

    @invariant()
    def every_live_version_reads_back(self) -> None:
        assert self.db.object_count() == len(self.model.keys())
        for key in self.model.keys():
            oid = Oid(key)
            assert [v.vid.serial for v in self.db.versions(oid)] == self.model.serials(key)
            for serial in self.model.serials(key):
                assert self.db.materialize(Vid(oid, serial)) == self.model.read(key, serial)

    @invariant()
    def pinned_reader_sees_the_state_it_pinned(self) -> None:
        if self.pinned is None:
            return
        snap, then = self.pinned
        for key in then.keys():
            for serial in then.serials(key):
                assert snap.materialize(Vid(Oid(key), serial)) == then.read(key, serial)

    @invariant()
    def accounting_is_exact_and_the_database_checks(self) -> None:
        assert_accounting_exact(self.db)
        if not self.wrote_large:
            assert self.db.store.blobs.pack_count() == 0
        report = check_database(self.db, strict=True)
        assert report.ok, report.render()

    def teardown(self) -> None:
        try:
            self._unpin()
            if self.txn is not None:
                self.txn.abort()
            self.db.close()
        finally:
            shutil.rmtree(self._dir, ignore_errors=True)


class DeltaStraddleMachine(StraddleMachine):
    kind = "delta"


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestStraddleFull = StraddleMachine.TestCase
TestStraddleFull.settings = _SETTINGS
TestStraddleDelta = DeltaStraddleMachine.TestCase
TestStraddleDelta.settings = _SETTINGS
