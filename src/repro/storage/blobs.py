"""Content-addressed blob storage for large version payloads.

OrpheusDB-style dedup for the version store: a stored payload -- a full
copy or a delta body along the derived-from chain -- *larger than*
``repro.core.store.INLINE_PAYLOAD_MAX`` (256 bytes) is keyed by the
sha256 of its bytes and stored once, as one frame in an append-only
**pack file** under ``blobs/``.  Identical payloads across objects,
versions, and snapshots share one frame.

Smaller payloads never come here: they are written inline into their
``ode.versions`` heap record, where the WAL's group commit already makes
them durable.  A blob costs a 42-byte reference in each record that uses
it plus an 8-byte frame header (its refcount is derived, not stored), so
a payload stored twice saves nothing below 84 bytes; the typical small
payload is the 10-byte identity delta ``newversion`` writes, or the
~120-byte delta of a 5 % edit.  The threshold is one sixteenth of a
page, so a versions-heap page still packs 15 inline payloads.

**Frames** are the WAL's: ``u32 length | u32 crc32 | body``, except that
the crc covers the length as well, so a tail of zeros (a file a crash
left extended but unwritten) is not a run of valid empty frames.  Bit 31
of the length is the *dead mark* (see :meth:`BlobStore.unlink`).  A
frame never moves and is never rewritten apart from that one bit.

**The index is derived, not stored.**  ``key -> (pack, offset, size)``
lives in memory and is rebuilt at open by scanning every pack and
hashing each live body -- the key is nowhere on disk.  A frame that
fails its length or crc ends the scan of its pack; in the newest pack
that is the torn tail of a crashed append and is truncated away, in an
older one (older packs are sealed only when fully synced) it is damage:
the pack keeps its readable prefix and is never compacted.  Of two
frames with one key (a crash between copy-forward and retire) the later
wins and the earlier is dead space, remembered in its pack so that
:meth:`BlobStore.unlink` marks it dead too.

**Durability: the log carries the payload.**  ``put`` only appends, and
nothing on the commit path forces a pack.  The database passes ``put`` a
``log`` callback that appends a ``PAYLOAD`` record holding the body
before the frame is written, under the store lock, so **a frame's
``PAYLOAD`` record precedes, in log order, every record that references
the frame** -- a record of another transaction that dedups against it
included.  The flush that makes a reference durable therefore makes its
payload durable too, with the one log fsync.  Recovery puts every
``PAYLOAD`` body back before it replays the heaps -- losers' included,
since a winner may have deduped against a loser's frame -- and the log
forgets a payload only after :meth:`BlobStore.sync` has made the packs
durable (the checkpoint's write-back).  Packs are otherwise forced only
when sealed (full, or holding too much dead space for compaction to
leave alone), and by the reclaim step that retires emptied ones.  A crash
or rollback between put and reference leaves an unreferenced frame,
which the store's next recount makes a GC candidate.

**Reclaim** goes only through the GC tombstone protocol (journal first,
unlink second -- ``repro.core.gc``): :meth:`BlobStore.unlink` drops the
index entry and sets the dead mark of every frame holding the key (a
copy is never marked before then: its replacement may not be synced
yet), so a missing key surfaces as
:class:`~repro.errors.BlobMissingError` and snapshot readers recover
from their stash overlays; the commit path runs it at the pace of
:data:`GARBAGE_PACE`.  The mark is one byte written in place and never
forced: losing it resurrects a frame nothing references, i.e. a GC
candidate.  :meth:`BlobStore.compact` bounds dead space: while dead
bytes exceed :data:`DEAD_BUDGET` of live bytes it copies the survivors
of the sealed pack with the largest dead share into the active pack, and
the emptied pack is deleted by the next :meth:`BlobStore.sync` *after*
the fsync that covers the copies.  Live bytes are thus durable twice
before they are durable once again, which is why compaction needs no
journal (and copies log no ``PAYLOAD``: their originals stay on disk
until that fsync).

The store is deliberately a narrow interface (put/get/unlink/keys over
an opaque key) so an S3-style remote backend can slot in behind it later
(ROADMAP: multi-backend storage).
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
import zlib
from typing import Callable

from repro import probe
from repro.errors import BlobCorruptError, BlobError, BlobMissingError

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

_FRAME = struct.Struct("<II")  # length (bit 31: dead mark), crc32
_DEAD = 1 << 31
_PACK_NAME = re.compile(r"pack-(\d{6,})\Z")

#: The append that grows the active pack to this size seals it.
PACK_TARGET = 4 << 20
#: Compaction keeps dead frame bytes at or below this share of live ones.
DEAD_BUDGET = 1 / 64
#: Garbage pacing (GOGC=100): a commit that finds garbage (zero-ref
#: candidate plus dead frame bytes) grown by this share of the live payload
#: bytes since the last reclaim attempt runs one, so garbage stays at or
#: below live and compaction copies at most a byte per byte it frees.
GARBAGE_PACE = 1


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
        "frames_appended",
        "bytes_written",
        "bytes_deduped",
        "reads",
        "bytes_read",
        "unlinks",
        "bytes_unlinked",
        "missing",
        "syncs",
        "packs_created",
        "compactions",
        "bytes_copied_forward",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {f"blobs.{name}": getattr(self, name) for name in self.__slots__}


class _Pack:
    """One pack file: ``size`` bytes of frames, ``live`` of them indexed.

    ``superseded`` maps a key to the offset of its unmarked frame here
    that a later copy replaced in the index (copy-forward, whether this
    process ran it or a crashed one did and the open-time scan found both).
    """

    __slots__ = ("path", "file", "size", "live", "damaged", "superseded")

    def __init__(self, path: str, flags: int = 0) -> None:
        self.path = path
        fd = os.open(path, os.O_RDWR | flags, 0o666)
        self.file = os.fdopen(fd, "r+b", buffering=0)
        self.size = self.live = 0
        self.damaged = False
        self.superseded: dict[str, int] = {}

    def write(self, data: bytes) -> None:
        """Write ``data`` at the end of the frames (``probe.write`` file)."""
        fd, view, at = self.file.fileno(), memoryview(data), self.size
        while view:
            done = os.pwrite(fd, view, at)
            view, at = view[done:], at + done


def _crc(size: int, body: bytes | memoryview) -> int:
    """The frame checksum: crc32 over ``length | body``."""
    return zlib.crc32(body, zlib.crc32(_REF_LEN.pack(size)))


def _checks(raw: bytes, size: int) -> bool:
    """True when ``raw`` is a whole live frame of ``size`` body bytes."""
    return len(raw) == _FRAME.size + size and _FRAME.unpack_from(raw) == (
        size,
        _crc(size, memoryview(raw)[_FRAME.size :]),
    )


class BlobStore:
    """Immutable sha256-keyed frames in append-only pack files."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)
        #: Serializes everything that changes the index or the pack list
        #: (:meth:`get` only reads them, and revalidates).
        self._lock = threading.Lock()
        self._index: dict[str, tuple[_Pack, int, int]] = {}
        self._packs: list[_Pack] = []
        self._retiring: list[_Pack] = []  # emptied; deleted by the next sync
        self._active: _Pack | None = None
        #: Frame bytes ever appended / covered by a completed pack fsync.
        #: Unsynced bytes are always in the active pack: a pack is sealed
        #: only when the two are equal.
        self._appended = self._synced = 0
        self._dir_synced = 0  # ``stats.packs_created`` the directory fsync covers
        self._next_id = 1
        self.stats = BlobStats()
        self._open_packs()

    # -- open: derive the index --------------------------------------------------

    def _open_packs(self) -> None:
        found = sorted(
            (int(m.group(1)), m.string)
            for m in map(_PACK_NAME.match, os.listdir(self._root))
            if m
        )
        for pack_id, name in found:
            pack = _Pack(os.path.join(self._root, name))
            self._packs.append(pack)
            end = os.path.getsize(pack.path)
            pack.size = self._scan(pack, end)
            if pack.size < end:
                if pack_id == found[-1][0]:
                    pack.file.truncate(pack.size)  # a crashed append's torn tail
                else:
                    pack.damaged = True
        if found:
            self._next_id = found[-1][0] + 1
            if self._packs[-1].size < PACK_TARGET:
                self._active = self._packs[-1]

    def _scan(self, pack: _Pack, end: int) -> int:
        """Index ``pack``'s frames; returns the offset where valid ones end."""
        pos = 0
        with open(pack.path, "rb") as fh:
            while pos + _FRAME.size <= end:
                length, crc = _FRAME.unpack(fh.read(_FRAME.size))
                size = length & ~_DEAD
                if pos + _FRAME.size + size > end:
                    break
                if length & _DEAD:
                    fh.seek(size, os.SEEK_CUR)
                else:
                    body = fh.read(size)
                    if _crc(size, body) != crc:
                        break
                    key = blob_key(body)
                    earlier = self._index.get(key)
                    if earlier is not None:
                        earlier[0].live -= _FRAME.size + earlier[2]
                        earlier[0].superseded[key] = earlier[1]
                    self._index[key] = (pack, pos, size)
                    pack.live += _FRAME.size + size
                pos += _FRAME.size + size
        return pos

    def close(self) -> None:
        """Close every pack file (syncs nothing: see :meth:`sync`)."""
        with self._lock:
            for pack in self._packs + self._retiring:
                pack.file.close()

    # -- the key surface -------------------------------------------------------------

    def exists(self, key: str) -> bool:
        """True when a frame holds the key's content."""
        return key in self._index

    def size_of(self, key: str) -> int | None:
        """Content size of a key, or None when no frame holds it."""
        loc = self._index.get(key)
        return None if loc is None else loc[2]

    def keys(self) -> list[str]:
        """Every key a frame holds (sorted)."""
        with self._lock:
            return sorted(self._index)

    def put(self, content: bytes, log: Callable[[bytes], object] | None = None) -> str:
        """Store ``content``; returns its key.  Idempotent by construction:
        ``put(b) == put(b)`` is one key, one frame and (after the first
        call) no I/O.  When a frame is appended, ``log(content)`` runs
        first, under the store lock: no other put can find the key before
        its ``PAYLOAD`` record is in the log.  Durable once that record
        is, or once :meth:`sync` has run."""
        key = blob_key(content)
        size = len(content)
        if size >= _DEAD:
            raise BlobError(f"blob of {size} bytes exceeds the frame format")
        with self._lock:
            self.stats.puts += 1
            if key in self._index:
                # Content-addressing makes the lookup sufficient: the
                # frame's bytes *are* the key's preimage, whoever put them.
                self.stats.dedup_hits += 1
                self.stats.bytes_deduped += size
                return key
            if log is not None:
                log(content)
            self._append(key, _FRAME.pack(size, _crc(size, content)) + content)
            self.stats.frames_appended += 1
            self.stats.bytes_written += size
        return key

    def _append(self, key: str, frame: bytes) -> None:
        """Append one frame to the active pack and index it (lock held)."""
        pack = self._active
        if pack is None:
            path = os.path.join(self._root, f"pack-{self._next_id:06d}")
            pack = self._active = _Pack(path, os.O_CREAT | os.O_EXCL)
            self._packs.append(pack)
            self._next_id += 1
            self.stats.packs_created += 1
        try:
            probe.write("blobs.append", pack, frame)
        except BaseException:
            if not probe.crashed():
                # No partial frame may precede a retried one (the WAL's
                # failed-write repair); should the truncate fail too, the
                # next append still overwrites from this same offset.
                try:
                    os.ftruncate(pack.file.fileno(), pack.size)
                except OSError:
                    pass
            raise
        self._index[key] = (pack, pack.size, len(frame) - _FRAME.size)
        pack.size += len(frame)
        pack.live += len(frame)
        self._appended += len(frame)
        if pack.size >= PACK_TARGET:
            self._seal()

    def _seal(self) -> None:
        """Sync, and append to the active pack no more (lock held): a
        sealed pack is fully synced, so a bad frame in it is damage."""
        self._sync()
        self._active = None

    def get(self, key: str) -> bytes:
        """Read a blob's content (one pread, crc checked).

        Raises :class:`BlobMissingError` when no frame holds the key and
        :class:`BlobCorruptError` rather than return bytes that do not
        match their frame header.  Takes no lock: a pack is closed only
        once no index entry points into it and entries never point back,
        so finding the same entry *after* the read proves the descriptor
        was the pack's throughout; a reader that loses the race with
        compaction or reclaim re-resolves through the index.
        """
        while True:
            loc = self._index.get(key)
            if loc is None:
                self.stats.missing += 1
                raise BlobMissingError(f"blob {key} is not on disk")
            pack, offset, size = loc
            try:
                raw = os.pread(pack.file.fileno(), _FRAME.size + size, offset)
            except (OSError, ValueError):  # closed under us, or a real error
                if self._index.get(key) is loc:
                    raise
                continue
            if self._index.get(key) is loc:
                break
        if not _checks(raw, size):
            raise BlobCorruptError(
                f"blob {key}: frame at {os.path.basename(pack.path)}+{offset} "
                "fails its length/crc check"
            )
        self.stats.reads += 1
        self.stats.bytes_read += size
        return raw[_FRAME.size :]

    def unlink(self, key: str) -> int:
        """Forget a key; returns the content bytes freed (0 if already gone).

        Only the GC tombstone protocol calls this -- the tombstone must be
        durable in the WAL *before* the unlink.  The frame stays where it
        is with its dead mark set (one byte, so the write cannot tear)
        until :meth:`compact` retires its pack.
        """
        with self._lock:
            loc = self._index.get(key)
            if loc is None:
                return 0
            pack, offset, size = loc
            del self._index[key]  # first: a racing reader must not meet the mark
            pack.live -= _FRAME.size + size
            # Every copy on disk, or the next open indexes an unmarked one.
            copies = [(pack, offset)] + [
                (old, old.superseded.pop(key))
                for old in self._packs + self._retiring
                if key in old.superseded
            ]
            for holder, at in copies:
                os.pwrite(holder.file.fileno(), bytes([0x80 | size >> 24]), at + 3)
            self.stats.unlinks += 1
            self.stats.bytes_unlinked += size
        return size

    # -- durability ------------------------------------------------------------------

    def sync(self) -> None:
        """Make every frame appended so far durable; retire emptied packs.

        One fsync of the active pack when it has grown since the last
        sync, one of the directory when a pack file was created since.
        Packs :meth:`compact` emptied before this call are deleted after
        the fsync that covers the copies of their survivors.  Holds the
        store lock throughout: it runs only where nothing appends (a
        checkpoint, a reclaim step, a seal).
        """
        with self._lock:
            self._sync()

    def _sync(self) -> None:
        if self._appended != self._synced:
            probe.point("blobs.sync.fsync")
            os.fsync(self._active.file.fileno())
            self.stats.syncs += 1
            self._synced = self._appended
        if self.stats.packs_created != self._dir_synced:
            fd = os.open(self._root, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self._dir_synced = self.stats.packs_created
        if not probe.crashed():  # a dead process deletes nothing
            for done in list(self._retiring):
                os.unlink(done.path)
                done.file.close()
                self._retiring.remove(done)
                probe.point("blobs.compact.retired")

    def unsynced_tail(self) -> tuple[str | None, int]:
        """The active pack's path and the length of it an fsync covers:
        a crash may lose what follows (the crash matrix cuts exactly that)."""
        with self._lock:
            if self._active is None:
                return None, 0
            return self._active.path, self._active.size - (self._appended - self._synced)

    # -- dead space ------------------------------------------------------------------

    def stats_dict(self) -> dict[str, int]:
        """The counters plus the pack gauges (``blobs.*`` namespace)."""
        out = self.stats.as_dict()
        out["blobs.packs"] = self.pack_count()
        out["blobs.dead_bytes"] = self.dead_bytes()
        out["blobs.unsynced_bytes"] = self._appended - self._synced  # covered by the log
        return out

    def pack_count(self) -> int:
        """Number of pack files on disk."""
        return len(self._packs) + len(self._retiring)

    def total_bytes(self) -> int:
        """Bytes of pack files on disk, dead space included."""
        return sum(pack.size for pack in self._packs + self._retiring)

    def live_bytes(self) -> int:
        """Frame bytes (headers included) the index points at."""
        return sum(pack.live for pack in self._packs)

    def dead_bytes(self) -> int:
        """Frame bytes nothing points at, in packs not yet queued to retire."""
        return sum(pack.size - pack.live for pack in self._packs if not pack.damaged)

    def _over_budget(self) -> bool:
        return self.dead_bytes() > DEAD_BUDGET * self.live_bytes()

    def compact(self) -> None:
        """Bring dead space back under :data:`DEAD_BUDGET`.

        Copying moves live bytes only, so dead space in the active pack
        beyond the budget can leave just one way: the pack is sealed here
        (one fsync), before anything is copied into it.  Sealed packs are
        then taken by descending dead share; each one's live frames are
        copied (crc checked) into the active pack and re-pointed in the
        index, and the emptied pack queues for the next :meth:`sync`.
        """
        with self._lock:
            pack = self._active
            if pack is not None and pack.size - pack.live > DEAD_BUDGET * self.live_bytes():
                self._seal()
            victims = [
                p for p in self._packs
                if p is not self._active and not p.damaged and (p.live < p.size or not p.size)
            ]
        victims.sort(key=lambda p: p.live / max(p.size, 1))
        for pack in victims:
            if pack.live and not self._over_budget():
                return
            self._copy_forward(pack)

    def _copy_forward(self, pack: _Pack) -> None:
        """Move a sealed pack's live frames to the active pack; queue it."""
        with self._lock:
            members = sorted(
                (loc[1], key) for key, loc in self._index.items() if loc[0] is pack
            )
        for offset, key in members:
            with self._lock:
                loc = self._index.get(key)
                if loc is None or loc[0] is not pack:
                    continue  # unlinked since the listing
                raw = os.pread(pack.file.fileno(), _FRAME.size + loc[2], offset)
                if not _checks(raw, loc[2]):
                    pack.damaged = True  # stays, with the evidence, for check --strict
                    return
                self._append(key, raw)
                pack.live -= len(raw)
                pack.superseded[key] = offset
                self.stats.bytes_copied_forward += len(raw)
        with self._lock:
            if pack.live == 0 and pack in self._packs:
                self._packs.remove(pack)
                self._retiring.append(pack)
        self.stats.compactions += 1
        probe.point("blobs.compact.copied")
