"""Property tests for the content-addressed blob store.

Three layers.  Direct properties of :class:`BlobStore` itself: keys are
the sha256 of the content, ``put`` is idempotent (same bytes, same key,
one frame), round-trips are exact, unlink is complete, a failed append
or sync leaves no partial frame, and a flipped byte is never returned.
A stateful machine over a bare :class:`BlobStore` (put / get / unlink /
sync / compact / clean reopen / crash with the tail cut at a random
byte) against a dict.  Then a second machine drives a real
:class:`Database` through version churn (creates, rewrites drawn from a
small value pool to force dedup, version and object deletes, online GC
passes, pinned-snapshot reads) and checks the store's core invariants
after every step:

* refcounts are never negative;
* the blob index matches a from-scratch recount of the payload records
  (live blobs == union of reachable payloads, with exact multiplicity);
* every indexed key has a frame, and no frame lacks an index record (no
  leaks, no dangling references);
* ``put(b)`` twice yields one key and one frame.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import Database, persistent
from repro.core.store import split_record
from repro.errors import BlobCorruptError, BlobMissingError, SerializationError
from repro.storage import blobs as blobstore
from repro.storage import serialization
from repro.storage.blobs import BlobStore
from repro.tools.check import check_database

_HEADER = 8  # u32 length | u32 crc32

try:

    @persistent(name="blobprops.Doc")
    class Doc:
        def __init__(self, body: str = "") -> None:
            self.body = body

except SerializationError:  # re-registered on module re-import
    Doc = serialization.lookup_type("blobprops.Doc")


def _pack_files(root) -> list[str]:
    return sorted(n for n in os.listdir(root) if n.startswith("pack-"))


# -- direct BlobStore properties ---------------------------------------------


@given(st.binary(min_size=0, max_size=4096))
def test_key_is_sha256_of_content(content):
    tmp = tempfile.mkdtemp(prefix="ode-blobs-")
    try:
        store = BlobStore(tmp)
        key = store.put(content)
        assert key == hashlib.sha256(content).hexdigest()
        assert store.get(key) == content
    finally:
        shutil.rmtree(tmp)


@given(st.lists(st.binary(min_size=0, max_size=512), min_size=1, max_size=20))
def test_put_is_idempotent_one_key_one_file(contents):
    tmp = tempfile.mkdtemp(prefix="ode-blobs-")
    try:
        store = BlobStore(tmp)
        keys = {store.put(c) for c in contents}
        # A second identical round must mint no new keys and no new frames.
        assert {store.put(c) for c in contents} == keys
        assert keys == set(store.keys())
        distinct = {bytes(c) for c in contents}
        assert store.stats.frames_appended == len(distinct)
        assert store.total_bytes() == sum(_HEADER + len(c) for c in distinct)
        assert _pack_files(tmp) == ["pack-000001"]
    finally:
        shutil.rmtree(tmp)


@given(st.binary(min_size=0, max_size=512))
def test_unlink_is_complete_and_idempotent(content):
    tmp = tempfile.mkdtemp(prefix="ode-blobs-")
    try:
        store = BlobStore(tmp)
        key = store.put(content)
        assert store.unlink(key) == len(content)
        assert not store.exists(key)
        with pytest.raises(BlobMissingError):
            store.get(key)
        assert store.unlink(key) == 0  # already gone: a no-op, not an error
        assert store.keys() == []
        assert store.dead_bytes() == _HEADER + len(content)
        store.close()
        assert BlobStore(tmp).keys() == []  # the dead mark outlives the index
    finally:
        shutil.rmtree(tmp)


def test_first_put_creates_the_pack_and_later_puts_only_append(tmp_path, monkeypatch):
    """One file per pack, not per payload: the first put creates it, the
    first sync makes its name durable with one directory fsync, and every
    later put is an append to the same file."""
    synced: list[bool] = []  # one entry per fsync: was it the directory?
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(os.path.isdir(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    root = tmp_path / "blobs"
    store = BlobStore(root)
    assert _pack_files(root) == []
    first, second = b"first" * 100, b"second" * 100
    key = store.put(first)
    assert _pack_files(root) == ["pack-000001"] and synced == []
    store.sync()
    assert synced == [False, True]  # the pack, then blobs/ for its name
    other = store.put(second)
    store.sync()
    store.sync()  # nothing appended since: no fsync at all
    assert synced == [False, True, False]
    assert store.get(key) == first and store.get(other) == second
    assert store.stats.puts == 2 and store.stats.frames_appended == 2
    assert store.stats.packs_created == 1 and store.stats.syncs == 2
    assert store.put(second) == other and store.stats.dedup_hits == 1
    assert _pack_files(root) == ["pack-000001"]


@pytest.mark.parametrize("failing", ["write", "truncate"])
def test_failed_append_leaves_no_partial_frame(tmp_path, monkeypatch, failing):
    """An append that fails part-way is cut back to where it started,
    publishes nothing and counts no frame -- and the same content goes in
    cleanly afterwards, readable after a reopen.  Should the repairing
    truncate fail as well, the retry still overwrites from that offset."""
    store = BlobStore(tmp_path / "blobs")
    kept = store.put(b"kept" * 100)
    content = b"payload" * 200
    key = blobstore.blob_key(content)
    real_pwrite = os.pwrite

    def half_then_fail(fd, data, offset):
        real_pwrite(fd, bytes(data[: len(data) // 2]), offset)
        raise OSError(28, "No space left on device")

    pack = tmp_path / "blobs" / "pack-000001"
    size = pack.stat().st_size
    with monkeypatch.context() as patch:
        patch.setattr(os, "pwrite", half_then_fail)
        if failing == "truncate":
            patch.setattr(os, "ftruncate", lambda _fd, _size: half_then_fail(_fd, b"", 0))
        with pytest.raises(OSError):
            store.put(content)
    assert not store.exists(key) and store.keys() == [kept]
    if failing == "write":
        assert pack.stat().st_size == size
    assert store.stats.puts == 2 and store.stats.frames_appended == 1
    shorter = store.put(b"s" * 300)  # shorter than the garbage it overwrites
    assert store.put(content) == key and store.get(key) == content
    assert store.stats.frames_appended == 3
    store.close()
    reopened = BlobStore(tmp_path / "blobs")
    assert reopened.keys() == sorted([kept, key, shorter])
    assert reopened.get(key) == content
    assert pack.stat().st_size == reopened.total_bytes()


def test_failed_pack_sync_covers_nothing_and_is_retried(tmp_path, monkeypatch):
    """A sync whose fsync fails raises, and the next sync fsyncs the same
    bytes again: nothing is counted as durable on the strength of it."""
    store = BlobStore(tmp_path / "blobs")
    store.put(b"payload" * 200)

    def boom(_fd):
        raise OSError(5, "Input/output error")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            store.sync()
    assert store.stats.syncs == 0
    calls: list[int] = []
    monkeypatch.setattr(os, "fsync", calls.append)
    store.sync()
    assert len(calls) == 2 and store.stats.syncs == 1  # pack + directory
    store.sync()
    assert len(calls) == 2


def test_put_writes_through_short_writes(tmp_path, monkeypatch):
    """``os.pwrite`` may accept fewer bytes than offered; put loops."""
    store = BlobStore(tmp_path / "blobs")
    content = bytes(range(256)) * 40
    real_pwrite = os.pwrite
    monkeypatch.setattr(
        os, "pwrite", lambda fd, data, at: real_pwrite(fd, data[:1000], at)
    )
    assert store.get(store.put(content)) == content
    store.close()
    assert BlobStore(tmp_path / "blobs").get(blobstore.blob_key(content)) == content


@pytest.mark.parametrize("where", ["body", "length", "crc"])
def test_a_flipped_byte_is_never_returned(tmp_path, where):
    """Bad bytes surface as ``BlobCorruptError`` from ``get`` and as a
    problem in ``check --strict``; the neighbours keep reading."""
    db = Database(tmp_path / "db")
    before, victim, after = (
        db.pnew(Doc(body=text * 300)) for text in ("a", "b", "c")
    )
    db.checkpoint()
    store = db.store.blobs
    key = next(k for k in store.keys() if b"bbb" in store.get(k))
    pack, offset, size = store._index[key]
    at = offset + {"body": _HEADER + size // 2, "length": 1, "crc": 5}[where]
    with open(pack.path, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)
        fh.seek(at)
        fh.write(bytes([byte[0] ^ 0x01]))
    db.store._bytes_cache.clear()
    db.store._decoded_cache.clear()
    with pytest.raises(BlobCorruptError):
        store.get(key)
    with pytest.raises(BlobCorruptError):
        victim.body
    assert before.body == "a" * 300 and after.body == "c" * 300
    report = check_database(db, strict=True)
    assert any(key[:12] in p and "crc" in p for p in report.problems), report.render()
    db.close()


@pytest.mark.parametrize("tail", ["short", "zeros"])
def test_reopen_truncates_a_torn_tail_and_keeps_what_precedes_it(tmp_path, tail):
    """The second frame lost its last bytes -- or the file system kept the
    file's new length and none of its new blocks, which read as zeros."""
    store = BlobStore(tmp_path / "blobs")
    first = store.put(b"one" * 200)
    second = store.put(b"two" * 200)
    store.close()
    pack = tmp_path / "blobs" / "pack-000001"
    whole = pack.stat().st_size
    with open(pack, "r+b") as fh:
        fh.truncate(whole - 7 if tail == "short" else _HEADER + 600)
        if tail == "zeros":
            fh.truncate(whole)
    store = BlobStore(tmp_path / "blobs")
    assert store.keys() == [first] and not store.exists(second)
    assert pack.stat().st_size == _HEADER + 600 == store.total_bytes()
    assert store.put(b"two" * 200) == second  # not a dedup target: appended anew
    assert store.stats.dedup_hits == 0 and store.get(second) == b"two" * 200


@given(st.binary(min_size=0, max_size=512), st.integers(0, 2**31))
def test_ref_records_round_trip(content, size):
    key = hashlib.sha256(content).hexdigest()
    record = blobstore.encode_ref(key, size)
    assert blobstore.is_ref(record)
    assert blobstore.decode_ref(record) == (key, size)
    # Ordinary serialized payloads never collide with the ref magic.
    assert not blobstore.is_ref(serialization.encode({"body": "x"}))


@pytest.mark.parametrize("fd_reused", [False, True])
def test_reader_that_loses_the_race_with_retirement_re_resolves(
    tmp_path, monkeypatch, fd_reused
):
    """Between a reader's index lookup and its pread the pack is compacted
    away: the descriptor is closed (EBADF) or already names another file
    (garbage, no error).  Either way the entry it looked up is gone from
    the index afterwards, so it reads again from the copy."""
    # The second put fills and seals the first pack.
    monkeypatch.setattr(blobstore, "PACK_TARGET", 2 * _HEADER + 800 + 1200)
    store = BlobStore(tmp_path / "blobs")
    keep = store.put(b"keep" * 200)
    doomed = store.put(b"doomed" * 200)
    (tmp_path / "other").write_bytes(b"\xee" * 4096)
    real_pread = os.pread
    raced: list[int] = []

    def pread(fd, length, offset):
        if not raced:
            raced.append(fd)
            store.unlink(doomed)
            store.compact()
            store.sync()  # pack-000001 deleted, its descriptor closed
            if fd_reused:
                assert os.open(tmp_path / "other", os.O_RDONLY) == fd
        return real_pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", pread)
    assert store.get(keep) == b"keep" * 200
    assert raced and _pack_files(tmp_path / "blobs") == ["pack-000002"]
    with pytest.raises(BlobMissingError):
        store.get(doomed)


def test_lock_free_readers_never_see_another_frames_bytes(tmp_path, monkeypatch):
    """Readers take no lock.  While one thread churns short-lived blobs
    through put / unlink / compact / sync -- sealing, copying forward and
    deleting packs under them -- more reader threads than cores re-read a
    stable set: every read returns exactly its content, never
    ``BlobCorruptError`` (a dead-marked or foreign frame), never missing."""
    import sys
    import threading
    import time

    monkeypatch.setattr(blobstore, "PACK_TARGET", 4096)
    store = BlobStore(tmp_path / "blobs")
    stable = {store.put(bytes([i]) * 700): bytes([i]) * 700 for i in range(12)}
    store.sync()
    stop = threading.Event()
    errors: list[BaseException] = []
    reads = [0]

    def reader() -> None:
        try:
            while not stop.is_set():
                for key, content in stable.items():
                    assert store.get(key) == content
                    reads[0] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)
            stop.set()

    def churn() -> None:
        try:
            n = 0
            while not stop.is_set():
                keys = [store.put(f"{n}:{j}".encode() * 90) for j in range(6)]
                n += 1
                store.sync()
                for key in keys:
                    store.unlink(key)
                store.compact()
                store.sync()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(6)]
    threads.append(threading.Thread(target=churn))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert reads[0] > 0 and store.stats.compactions > 0
    assert sorted(stable) == store.keys()


# -- stateful machine: a bare BlobStore vs. a dict -------------------------------

#: A few fixed bodies (dedup, unlink-then-put-again) beside random ones.
_BODIES = [bytes([i]) * (300 + 211 * i) for i in range(6)]


class PackMachine(RuleBasedStateMachine):
    """put / get / unlink / sync / compact / reopen / crash against a dict.

    Packs are shrunk to a few frames so sealing, copy-forward and retire
    all happen within thirty steps.
    """

    def __init__(self) -> None:
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="ode-packs-")
        self._saved = blobstore.PACK_TARGET
        blobstore.PACK_TARGET = 2048
        self.store = BlobStore(self._dir)
        self.model: dict[str, bytes] = {}

    def teardown(self) -> None:
        blobstore.PACK_TARGET = self._saved
        self.store.close()
        shutil.rmtree(self._dir, ignore_errors=True)

    @rule(content=st.sampled_from(_BODIES) | st.binary(min_size=0, max_size=700))
    def put_twice_is_one_frame(self, content: bytes) -> None:
        frames = self.store.stats.frames_appended
        key = self.store.put(content)
        assert self.store.put(content) == key == blobstore.blob_key(content)
        assert self.store.stats.frames_appended - frames == (key not in self.model)
        self.model[key] = content

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 2**31))
    def unlink(self, pick: int) -> None:
        key = sorted(self.model)[pick % len(self.model)]
        assert self.store.unlink(key) == len(self.model.pop(key))
        assert self.store.unlink(key) == 0
        with pytest.raises(BlobMissingError):
            self.store.get(key)

    @rule()
    def sync(self) -> None:
        self.store.sync()
        assert self.store._retiring == []

    @rule()
    def compact(self) -> None:
        """After a sync (so the active pack may be sealed) compaction
        brings dead space under the budget; the next sync retires."""
        self.store.sync()
        self.store.compact()
        assert self.store.dead_bytes() <= blobstore.DEAD_BUDGET * self.store.live_bytes()
        self.store.sync()
        assert self.store.total_bytes() == self.store.live_bytes() + self.store.dead_bytes()

    @rule()
    def reopen(self) -> None:
        """A clean close syncs first (the database checkpoints)."""
        self.store.sync()
        self.store.close()
        self.store = BlobStore(self._dir)

    @rule(cut=st.integers(0, 2**31), compact_first=st.booleans())
    def crash(self, cut: int, compact_first: bool) -> None:
        """Die with the newest pack cut at a random byte, maybe between
        copy-forward and retire.  Frames wholly before the cut survive;
        a key may come back only if it was unlinked after its copy."""
        if compact_first:
            self.store.compact()
        packs = _pack_files(self._dir)
        self.store.close()
        survivors = dict(self.model)
        if packs:
            newest = os.path.join(self._dir, packs[-1])
            at = cut % (os.path.getsize(newest) + 1)
            for key, (pack, offset, size) in self.store._index.items():
                if pack.path == newest and offset + _HEADER + size > at:
                    del survivors[key]
            with open(newest, "r+b") as fh:
                fh.truncate(at)
        self.store = BlobStore(self._dir)
        for key in self.store.keys():
            if key not in survivors:  # resurrected: whole, and nothing else
                assert blobstore.blob_key(self.store.get(key)) == key
                survivors[key] = self.store.get(key)
        self.model = survivors

    @invariant()
    def index_equals_model(self) -> None:
        assert self.store.keys() == sorted(self.model)
        for key, content in self.model.items():
            assert self.store.get(key) == content
            assert self.store.size_of(key) == len(content)

    @invariant()
    def pack_bytes_are_the_sum_of_their_frames(self) -> None:
        on_disk = {
            name: os.path.getsize(os.path.join(self._dir, name))
            for name in _pack_files(self._dir)
        }
        tracked = self.store._packs + self.store._retiring
        assert {os.path.basename(p.path): p.size for p in tracked} == on_disk
        assert self.store.total_bytes() == sum(on_disk.values())
        assert self.store.live_bytes() == sum(
            _HEADER + len(content) for content in self.model.values()
        )
        assert all(0 <= p.live <= p.size for p in tracked)


def _crashed_between_copy_and_retire(root, monkeypatch) -> tuple[BlobStore, str, str]:
    """A (1,144 B, unlinked), B (5 B) and C (300 B) in pack-1; compaction
    sealed it and copied B then C into pack-2; the crash kept only B's
    copy.  Returns the reopened store and the keys of B and C."""
    monkeypatch.setattr(blobstore, "PACK_TARGET", 2048)
    store = BlobStore(root)
    a, b, c = (store.put(body) for body in (b"a" * 1144, b"b" * 5, b"c" * 300))
    store.sync()
    store.unlink(a)
    store.compact()
    assert _pack_files(root) == ["pack-000001", "pack-000002"]
    store.close()
    with open(os.path.join(root, "pack-000002"), "r+b") as fh:
        fh.truncate(_HEADER + 5)
    store = BlobStore(root)
    assert store.keys() == sorted([b, c])
    assert store._index[b][0].path.endswith("pack-000002")
    return store, b, c


def test_unlink_marks_the_copy_a_crashed_compaction_left_behind(tmp_path, monkeypatch):
    """B has a frame in both packs and the open indexes the newer one.
    Unlinking B must mark the older frame too, or the next open indexes
    it and B is back."""
    store, b, c = _crashed_between_copy_and_retire(tmp_path, monkeypatch)
    assert store.unlink(b) == 5
    store.sync()
    store.close()
    store = BlobStore(tmp_path)
    assert store.keys() == [c]
    assert store.live_bytes() == _HEADER + 300


def test_compact_seals_an_active_pack_whose_dead_space_is_over_budget(
    tmp_path, monkeypatch
):
    """B's dead frame sits in the active pack.  Copying C in from pack-1
    first would un-sync that pack, which then cannot be sealed in the
    same pass, and its 13 dead bytes are over the budget for 308 live."""
    store, b, c = _crashed_between_copy_and_retire(tmp_path, monkeypatch)
    store.unlink(b)
    store.sync()
    store.compact()
    assert store.dead_bytes() <= blobstore.DEAD_BUDGET * store.live_bytes()
    store.sync()
    assert _pack_files(tmp_path) == ["pack-000003"]
    assert store.keys() == [c] and store.get(c) == b"c" * 300


TestPackMachine = PackMachine.TestCase
TestPackMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# -- stateful machine: database churn vs. blob-store invariants ---------------

#: Small value pool -> heavy cross-object dedup pressure.
_POOL = ["alpha" * 40, "beta" * 60, "gamma" * 80, "delta" * 100]


class BlobMachine(RuleBasedStateMachine):
    """Random version churn; the blob index must stay exact throughout."""

    def __init__(self) -> None:
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="ode-blobprops-")
        self.db = Database(self._dir)
        self.refs: list = []

    # -- rules -----------------------------------------------------------

    @rule(body=st.sampled_from(_POOL))
    def create(self, body: str) -> None:
        self.refs.append(self.db.pnew(Doc(body=body)))

    @precondition(lambda self: self.refs)
    @rule(pick=st.integers(0, 2**31), body=st.sampled_from(_POOL))
    def rewrite(self, pick: int, body: str) -> None:
        ref = self.refs[pick % len(self.refs)]
        self.db.newversion(ref)
        ref.body = body

    @precondition(lambda self: self.refs)
    @rule(pick=st.integers(0, 2**31))
    def prune_oldest(self, pick: int) -> None:
        ref = self.refs[pick % len(self.refs)]
        versions = self.db.versions(ref)
        if len(versions) > 1:
            self.db.pdelete(versions[0])

    @precondition(lambda self: self.refs)
    @rule(pick=st.integers(0, 2**31))
    def drop_object(self, pick: int) -> None:
        ref = self.refs.pop(pick % len(self.refs))
        self.db.pdelete(ref)

    @rule()
    def collect(self) -> None:
        self.db.run_gc(batch_limit=8)

    @precondition(lambda self: self.refs)
    @rule()
    def snapshot_read(self, ) -> None:
        with self.db.snapshot() as snap:
            for ref in self.refs:
                obj = snap.materialize(self.db.versions(ref)[-1].vid)
                assert obj.body in _POOL

    # -- invariants ------------------------------------------------------

    @invariant()
    def index_matches_payload_recount(self) -> None:
        """Live blobs == union of reachable payload records, exactly."""
        recounted: dict[str, int] = {}
        heap = self.db.catalog.ensure_heap("ode.versions")
        for _rid, record in heap.scan():
            payload = split_record(record)[1]
            if blobstore.is_ref(payload):
                key, _size = blobstore.decode_ref(payload)
                recounted[key] = recounted.get(key, 0) + 1
        entries = self.db.store.blob_entries()
        live = {k: rc for k, (rc, _s) in entries.items() if rc > 0}
        assert recounted == live
        assert all(rc >= 0 for rc, _s in entries.values()), (
            "negative refcount"
        )

    @invariant()
    def files_match_index(self) -> None:
        """No dangling references, no leaked frames."""
        entries = self.db.store.blob_entries()
        on_disk = set(self.db.store.blobs.keys())
        assert on_disk == set(entries), (
            f"leaked: {sorted(on_disk - set(entries))}, "
            f"dangling: {sorted(set(entries) - on_disk)}"
        )

    def teardown(self) -> None:
        try:
            # Final convergence: drain the collector, fsck, then prove the
            # whole state (index included) survives a clean reopen.
            for _ in range(3):
                if self.db.run_gc(batch_limit=64).candidates_remaining == 0:
                    break
            report = check_database(self.db, strict=True)
            assert report.ok, report.render()
            entries = self.db.store.blob_entries()
            candidates = set(self.db.store.gc_candidates())
            self.db.close()
            with Database(self._dir) as db:
                assert check_database(db, strict=True).ok
                assert db.store.blob_entries() == entries
                assert set(db.store.gc_candidates()) == candidates
        finally:
            shutil.rmtree(self._dir, ignore_errors=True)


TestBlobMachine = BlobMachine.TestCase
TestBlobMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
