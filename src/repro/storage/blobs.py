"""Content-addressed blob storage for large version payloads.

OrpheusDB-style dedup for the version store: a stored payload -- a full
copy or a delta body along the derived-from chain -- *larger than*
``repro.core.store.INLINE_PAYLOAD_MAX`` (256 bytes) is keyed by the
sha256 of its bytes and stored once, as an immutable file under
``blobs/ab/cdef...`` (first byte of the digest is the fan-out directory).
Identical payloads across objects, versions, and snapshots therefore share
one file.

Smaller payloads never come here: they are written inline into their
``ode.versions`` heap record, where the WAL's group commit already makes
them durable.  The break-even is a matter of arithmetic, not tuning.  A
blob costs a 42-byte reference in each record that uses it, before the
file's own inode and directory entry (its refcount is derived, not
stored), so a payload stored twice saves nothing below 84 bytes; and a
put is a file create, an fsync and a rename, against none for a heap
record the commit logs anyway.  The typical small payload is the 10-byte
identity delta ``newversion`` writes, or the ~120-byte delta of a 5 %
edit.  The threshold is one sixteenth of a page, so a versions-heap page
still packs 15 inline payloads.

Durability protocol for :meth:`BlobStore.put`:

1. write the content to a temp file *in the same directory*,
2. ``fsync`` the temp file,
3. ``rename`` it onto the final content path (atomic on POSIX).

A crash mid-put leaves either a temp file (swept opportunistically) or an
unreferenced content file; both are harmless -- content files carry no
liveness information.  Liveness is the blob references in the
``ode.versions`` records (WAL-journaled, locked and rolled back with
their object); the **refcount index** that
:class:`repro.core.store.VersionStore` keeps in memory is counted from
them at every load, and a file nothing references is a GC candidate in
it.  This module only knows about files.

Blob files are never overwritten: a put whose target path already exists is
a dedup hit and touches nothing.  Unlink happens only through the GC
tombstone protocol (journal first, unlink second -- see
``repro.core.gc``), so a missing file surfaces as
:class:`~repro.errors.BlobMissingError` and snapshot readers recover from
their stash overlays.

The store is deliberately a narrow interface (put/get/unlink/scan over an
opaque key) so an S3-style remote backend can slot in behind it later
(ROADMAP: multi-backend storage).
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from typing import Iterator

from repro.errors import BlobError, BlobMissingError

#: Version-record marker: a heap record in ``ode.versions`` that starts
#: with this magic is a blob *reference*, not inline payload bytes.  The
#: first byte is 0xFF, which the stable codec never emits as a leading
#: type tag; and the store never writes an inline payload that passes
#: :func:`is_ref` (it sends such a payload through the blob path), so the
#: two record encodings are disjoint.
_REF_MAGIC = b"\xffODEB1"
_REF_LEN = struct.Struct("<I")
#: Total size of an encoded blob reference: magic + u32 size + 32-byte digest.
REF_SIZE = len(_REF_MAGIC) + _REF_LEN.size + 32

#: Size of a hex blob key (sha256 hexdigest).
KEY_HEX_LEN = 64

#: A put's temp file is always new: the name carries pid + sequence.
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def blob_key(content: bytes) -> str:
    """The content key of ``content``: its sha256 hex digest."""
    return hashlib.sha256(content).hexdigest()


def encode_ref(key: str, size: int) -> bytes:
    """Encode a blob reference record (stored in the versions heap)."""
    return _REF_MAGIC + _REF_LEN.pack(size) + bytes.fromhex(key)


def is_ref(record: bytes) -> bool:
    """True when a versions-heap record is a blob reference."""
    return len(record) == REF_SIZE and record.startswith(_REF_MAGIC)


def decode_ref(record: bytes) -> tuple[str, int]:
    """Decode a blob reference record; returns ``(key, payload_size)``."""
    if not is_ref(record):
        raise BlobError("record is not a blob reference")
    (size,) = _REF_LEN.unpack_from(record, len(_REF_MAGIC))
    return record[len(_REF_MAGIC) + _REF_LEN.size :].hex(), size


class BlobStats:
    """Operation counters, surfaced under ``blobs.*`` in database stats."""

    __slots__ = (
        "puts",
        "dedup_hits",
        "files_written",
        "bytes_written",
        "bytes_deduped",
        "reads",
        "bytes_read",
        "unlinks",
        "bytes_unlinked",
        "missing",
    )

    def __init__(self) -> None:
        self.puts = 0
        self.dedup_hits = 0
        self.files_written = 0
        self.bytes_written = 0
        self.bytes_deduped = 0
        self.reads = 0
        self.bytes_read = 0
        self.unlinks = 0
        self.bytes_unlinked = 0
        self.missing = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "blobs.puts": self.puts,
            "blobs.dedup_hits": self.dedup_hits,
            "blobs.files_written": self.files_written,
            "blobs.bytes_written": self.bytes_written,
            "blobs.bytes_deduped": self.bytes_deduped,
            "blobs.reads": self.reads,
            "blobs.bytes_read": self.bytes_read,
            "blobs.unlinks": self.unlinks,
            "blobs.bytes_unlinked": self.bytes_unlinked,
            "blobs.missing": self.missing,
        }


class BlobStore:
    """Immutable sha256-keyed files under one root directory."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)
        self._lock = threading.Lock()
        self._tmp_seq = 0
        self.stats = BlobStats()

    @property
    def root(self) -> str:
        """The blob directory."""
        return self._root

    def path_of(self, key: str) -> str:
        """Filesystem path of a content key (``blobs/ab/cdef...``)."""
        if len(key) != KEY_HEX_LEN:
            raise BlobError(f"malformed blob key {key!r}")
        return os.path.join(self._root, key[:2], key[2:])

    def exists(self, key: str) -> bool:
        """True when the content file is on disk."""
        return os.path.exists(self.path_of(key))

    def put(self, content: bytes) -> str:
        """Store ``content``; returns its key.  Idempotent by construction:
        ``put(b) == put(b)`` is one key and (after the first call) no I/O."""
        key = blob_key(content)
        path = self.path_of(key)
        self.stats.puts += 1
        if os.path.exists(path):
            # Content-addressing makes the existence check sufficient: the
            # file's bytes *are* the key's preimage, whoever wrote it.
            self.stats.dedup_hits += 1
            self.stats.bytes_deduped += len(content)
            return key
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        directory = os.path.dirname(path)
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{seq}")
        try:
            fd = os.open(tmp, _TMP_FLAGS, 0o666)
        except FileNotFoundError:  # first put into this fan-out directory
            os.makedirs(directory, exist_ok=True)
            fd = os.open(tmp, _TMP_FLAGS, 0o666)
        try:
            try:
                view = memoryview(content)
                while view:
                    view = view[os.write(fd, view) :]
                os.fsync(fd)
            finally:
                os.close(fd)
            os.rename(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.files_written += 1
        self.stats.bytes_written += len(content)
        return key

    def get(self, key: str) -> bytes:
        """Read a blob's content; raises :class:`BlobMissingError` if gone."""
        try:
            with open(self.path_of(key), "rb") as fh:
                content = fh.read()
        except FileNotFoundError:
            self.stats.missing += 1
            raise BlobMissingError(f"blob {key} is not on disk") from None
        self.stats.reads += 1
        self.stats.bytes_read += len(content)
        return content

    def size_of(self, key: str) -> int | None:
        """On-disk size of a blob, or None when the file is gone."""
        try:
            return os.path.getsize(self.path_of(key))
        except OSError:
            return None

    def unlink(self, key: str) -> int:
        """Remove a blob file; returns the bytes freed (0 if already gone).

        Only the GC tombstone protocol calls this -- the tombstone must be
        durable in the WAL *before* the unlink.
        """
        path = self.path_of(key)
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            return 0
        self.stats.unlinks += 1
        self.stats.bytes_unlinked += size
        return size

    def keys(self) -> Iterator[str]:
        """Iterate the keys of every content file on disk (sorted).

        Temp files from interrupted puts are swept as they are found --
        they were never renamed, so nothing can reference them.
        """
        try:
            fanouts = sorted(os.listdir(self._root))
        except FileNotFoundError:
            return
        for fanout in fanouts:
            subdir = os.path.join(self._root, fanout)
            if len(fanout) != 2 or not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.startswith(".tmp-"):
                    try:
                        os.unlink(os.path.join(subdir, name))
                    except OSError:
                        pass
                    continue
                key = fanout + name
                if len(key) == KEY_HEX_LEN:
                    yield key

    def file_count(self) -> int:
        """Number of content files on disk."""
        return sum(1 for _ in self.keys())

    def total_bytes(self) -> int:
        """Total content bytes on disk."""
        total = 0
        for key in self.keys():
            size = self.size_of(key)
            if size is not None:
                total += size
        return total
