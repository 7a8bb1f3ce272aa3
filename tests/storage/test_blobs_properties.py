"""Property tests for the content-addressed blob store.

Two layers.  Direct properties of :class:`BlobStore` itself: keys are
the sha256 of the content, ``put`` is idempotent (same bytes, same key,
one file), round-trips are exact, unlink is complete.  Then a stateful
machine drives a real :class:`Database` through version churn (creates,
rewrites drawn from a small value pool to force dedup, version and
object deletes, online GC passes, pinned-snapshot reads) and checks the
store's core invariants after every step:

* refcounts are never negative;
* the blob index matches a from-scratch recount of the payload records
  (live blobs == union of reachable payloads, with exact multiplicity);
* every indexed key's content file exists, and no content file lacks an
  index record (no leaks, no dangling references);
* ``put(b)`` twice yields one key and one file.
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
from repro.errors import SerializationError
from repro.storage import blobs as blobstore
from repro.storage import serialization
from repro.storage.blobs import BlobStore
from repro.tools.check import check_database

try:

    @persistent(name="blobprops.Doc")
    class Doc:
        def __init__(self, body: str = "") -> None:
            self.body = body

except SerializationError:  # re-registered on module re-import
    Doc = serialization.lookup_type("blobprops.Doc")


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
        # A second identical round must mint no new keys and no new files.
        assert {store.put(c) for c in contents} == keys
        assert keys == set(store.keys())
        assert store.file_count() == len({bytes(c) for c in contents})
        assert store.total_bytes() == sum(
            len(c) for c in {bytes(x) for x in contents}
        )
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
        assert store.unlink(key) == 0  # already gone: a no-op, not an error
        assert store.file_count() == 0
    finally:
        shutil.rmtree(tmp)


def test_first_put_creates_its_fan_out_directory(tmp_path):
    """The fan-out directory is made when the temp open finds it missing,
    including one that was removed after earlier puts went through it."""
    store = BlobStore(tmp_path / "blobs")
    first, second = b"first" * 100, b"second" * 100
    key = store.put(first)
    fanout = tmp_path / "blobs" / key[:2]
    assert sorted(p.name for p in fanout.iterdir()) == [key[2:]]
    assert store.get(key) == first
    store.unlink(key)
    fanout.rmdir()
    assert store.put(first) == key and store.get(key) == first
    other = store.put(second)
    assert store.get(other) == second
    assert store.stats.puts == 3 and store.stats.files_written == 3
    assert store.stats.dedup_hits == 0
    assert store.put(second) == other and store.stats.dedup_hits == 1


@pytest.mark.parametrize("failing", ["write", "fsync", "rename"])
def test_failed_put_leaves_no_temp_file(tmp_path, monkeypatch, failing):
    """A put that fails anywhere between the temp open and the rename
    removes its temp file, publishes nothing, counts no file written --
    and the same content goes in cleanly afterwards."""
    store = BlobStore(tmp_path / "blobs")
    content = b"payload" * 200
    key = blobstore.blob_key(content)

    def boom(*_args, **_kwargs):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, failing, boom)
        with pytest.raises(OSError):
            store.put(content)
    assert not store.exists(key)
    assert list((tmp_path / "blobs" / key[:2]).iterdir()) == []
    assert store.stats.puts == 1 and store.stats.files_written == 0
    assert store.put(content) == key and store.get(key) == content
    assert store.stats.files_written == 1


def test_put_writes_through_short_writes(tmp_path, monkeypatch):
    """``os.write`` may accept fewer bytes than offered; put loops."""
    store = BlobStore(tmp_path / "blobs")
    content = bytes(range(256)) * 40
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:1000]))
    assert store.get(store.put(content)) == content


@given(st.binary(min_size=0, max_size=512), st.integers(0, 2**31))
def test_ref_records_round_trip(content, size):
    key = hashlib.sha256(content).hexdigest()
    record = blobstore.encode_ref(key, size)
    assert blobstore.is_ref(record)
    assert blobstore.decode_ref(record) == (key, size)
    # Ordinary serialized payloads never collide with the ref magic.
    assert not blobstore.is_ref(serialization.encode({"body": "x"}))


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
        for _rid, payload in heap.scan():
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
        """No dangling references, no leaked content files."""
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
