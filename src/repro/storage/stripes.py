"""Striped page locks: fine-grained mutual exclusion for heap page windows.

The snapshot read path (``repro.core.snapshot``) lets readers fetch heap
records without the database's global storage mutex.  Page *frames* are
already safe to share (the buffer pool pins them under its own lock), but
the bytes inside a frame are not: a writer compacting or rewriting a slot
while a reader copies the record out would tear the read.  A single lock
per page would be safest but heavyweight; a single global lock would
recreate the mutex this layer exists to remove.

:class:`StripedLock` is the standard middle ground -- N plain locks, a
page id hashing to one stripe.  Heap physical operations hold exactly one
stripe at a time (one page per physical op), so stripes can never
deadlock against each other.
Writers still serialize logical mutations through the storage mutex; the
stripes only guard the short window in which an op touches a page's bytes
(a writer's fetch..unpin, a reader's copy) against lock-free readers.
"""

from __future__ import annotations

import threading

#: Default stripe count.  Collisions only cost a brief wait on an
#: unrelated page; 64 keeps the false-sharing odds low for any plausible
#: thread count while staying cheap to allocate per database.
DEFAULT_STRIPES = 64


class StripedLock:
    """N-way striped mutual exclusion keyed by an integer (a page id)."""

    __slots__ = ("_locks", "_stripes")

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError("stripe count must be >= 1")
        self._stripes = stripes
        self._locks = [threading.Lock() for _ in range(stripes)]

    def lock_for(self, key: int) -> threading.Lock:
        """The stripe lock guarding ``key``: hold it with ``with``."""
        return self._locks[hash(key) % self._stripes]
