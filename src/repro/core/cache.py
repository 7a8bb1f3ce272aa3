"""Budgeted LRU caching for the version store's hot read path.

The materialization surface (generic deref -> ``latest_vid`` -> payload
bytes -> decode) is the hottest path in the kernel: the paper's promise
that generic references and delta chains are cheap enough to use
everywhere (§3, §4.3) only holds if repeated reads do not re-pay the
chain replay and decode cost.  This module provides the shared cache
machinery:

* :class:`BudgetedLRU` -- an LRU mapping bounded by a *cost budget*
  (payload bytes for the bytes cache, entry count for the decoded-object
  cache), with an optional group index so every entry of one object can
  be invalidated precisely (``pdelete`` of an object, transaction
  rollback) without scanning the whole cache.
* :class:`CacheStats` -- the counter block the store exposes through
  ``Database.stats()`` and ``tools/inspect`` so cache behaviour is
  measurable rather than assumed (experiment E11 asserts on it).

Invalidation correctness is the store's job; the cache only promises
that ``pop``/``pop_group``/``clear`` remove entries and that the budget
is enforced on every ``put``.

Every operation is guarded by an internal lock: the snapshot read path
(``repro.core.snapshot``) consults the shared bytes/decoded caches
without holding the database's storage mutex, so the cache itself must
tolerate concurrent readers and writers.  The lock is never held across
user code (``sizeof``/``group_of`` are called on plain keys/payloads),
so it cannot participate in a deadlock cycle.
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict
from collections.abc import Container
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from repro.core.identity import Oid, Vid

#: Default byte budget for the materialized-bytes cache (per store).
DEFAULT_BYTES_BUDGET = 16 * 1024 * 1024

#: Entry budget for the decoded-object cache (per store).
DEFAULT_DECODED_ENTRIES = 1024

#: Sentinel returned by ``VersionStore.read_attr`` when the fast path
#: cannot serve the attribute and the caller must materialize a fresh
#: copy.  Lives here (not in the store) so the pointer layer can import
#: it without a circular import.
READ_MISS = object()

#: Value types that may be returned straight from a shared cached decode:
#: immutable scalars, plus ids (the pointer layer re-wraps them into fresh
#: Ref/VersionRef objects) and containers the pointer layer copies anyway.
_SHAREABLE_TYPES = frozenset(
    {type(None), bool, int, float, str, bytes, Oid, Vid}
)


def _is_shareable(value: Any) -> bool:
    """True when handing ``value`` out cannot let the caller mutate the
    shared decoded object it came from."""
    t = type(value)
    if t in _SHAREABLE_TYPES:
        return True
    if t in (list, tuple, set, frozenset):
        return all(_is_shareable(v) for v in value)
    if t is dict:
        return all(
            _is_shareable(k) and _is_shareable(v) for k, v in value.items()
        )
    return False


def shared_attr(obj: Any, name: str) -> Any:
    """Attribute ``name`` of a shared cached decode, or :data:`READ_MISS`.

    The attribute fast path of the store and of snapshots: a value that
    cannot alias mutable cached state is served as it is; a bound method
    (it needs a private receiver for write-back) or an unknown type (it
    could leak shared state) sends the caller to a fresh materialize.
    ``AttributeError`` propagates as usual.
    """
    value = getattr(obj, name)
    if inspect.ismethod(value) and value.__self__ is obj:
        return READ_MISS
    return value if _is_shareable(value) else READ_MISS


@dataclass
class CacheStats:
    """Counters for one store's caching layer (consumed by E11).

    ``chain_prefix_hits`` counts cache misses that were served from a
    cached *ancestor* in the delta chain instead of replaying from the
    keyframe; ``deltas_applied`` and ``bytes_decoded`` measure the work
    that remained.  Live and pinned-snapshot reads count alike: both
    rebuild through ``VersionStore._version_bytes``.
    """

    bytes_hits: int = 0
    bytes_misses: int = 0
    bytes_invalidations: int = 0
    chain_prefix_hits: int = 0
    deltas_applied: int = 0
    bytes_decoded: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0
    writebacks_skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for ``Database.stats()`` / inspect."""
        return {
            "bytes_hits": self.bytes_hits,
            "bytes_misses": self.bytes_misses,
            "bytes_invalidations": self.bytes_invalidations,
            "chain_prefix_hits": self.chain_prefix_hits,
            "deltas_applied": self.deltas_applied,
            "bytes_decoded": self.bytes_decoded,
            "decoded_hits": self.decoded_hits,
            "decoded_misses": self.decoded_misses,
            "writebacks_skipped": self.writebacks_skipped,
        }


class BudgetedLRU:
    """An LRU mapping bounded by a cost budget instead of an entry count.

    ``sizeof(value)`` prices each entry (``len`` for byte payloads; a
    constant 1 turns the budget into an entry count).  A single entry
    larger than the whole budget is still admitted -- the budget bounds
    the *steady state*, not a single oversized payload -- but it becomes
    the next eviction victim.

    ``group_of(key)`` (optional) maintains a reverse index so
    :meth:`pop_group` can drop every entry belonging to one group (one
    object id) in O(group size).
    """

    __slots__ = ("_budget", "_sizeof", "_group_of", "_entries", "_sizes",
                 "_groups", "_used", "_lock", "evictions")

    def __init__(
        self,
        budget: int,
        sizeof: Callable[[Any], int],
        group_of: Callable[[Hashable], Hashable] | None = None,
    ) -> None:
        if budget < 1:
            raise ValueError("cache budget must be >= 1")
        self._budget = budget
        self._sizeof = sizeof
        self._group_of = group_of
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._groups: dict[Hashable, set[Hashable]] = {}
        self._used = 0
        self._lock = threading.Lock()
        #: Entries dropped to stay within budget (not invalidations).
        self.evictions = 0

    # -- mapping surface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._entries))

    @property
    def used(self) -> int:
        """Total cost of resident entries."""
        return self._used

    @property
    def budget(self) -> int:
        """The configured cost budget."""
        return self._budget

    def __getitem__(self, key: Hashable) -> Any:
        with self._lock:
            entry = self._entries[key]
            self._entries.move_to_end(key)
            return entry

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, value: Any, unless: Container | None = None) -> None:
        """Insert/replace an entry, evicting LRU entries to fit the budget.

        Skipped when ``key in unless``, checked under the cache lock: a
        snapshot's fill passes its byte overlay, so a writer that stashed
        the key first is never undone, and one that stashes after finds
        the entry in place to replace (the fence in
        ``VersionStore._version_bytes``).
        """
        size = self._sizeof(value)
        with self._lock:
            if unless and key in unless:
                return
            if key in self._entries:
                self._used -= self._sizes[key]
                self._entries[key] = value
                self._entries.move_to_end(key)
            else:
                self._entries[key] = value
                if self._group_of is not None:
                    self._groups.setdefault(self._group_of(key), set()).add(key)
            self._sizes[key] = size
            self._used += size
            while self._used > self._budget and len(self._entries) > 1:
                victim, _ = self._entries.popitem(last=False)
                self._used -= self._sizes.pop(victim)
                self._drop_group_member(victim)
                self.evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return one entry (an invalidation, not an eviction)."""
        with self._lock:
            entry = self._entries.pop(key, _MISSING)
            if entry is _MISSING:
                return default
            self._used -= self._sizes.pop(key)
            self._drop_group_member(key)
            return entry

    def pop_group(self, group: Hashable) -> int:
        """Remove every entry whose key belongs to ``group``; returns count."""
        if self._group_of is None:
            raise TypeError("cache was built without a group function")
        with self._lock:
            keys = self._groups.pop(group, None)
            if not keys:
                return 0
            for key in keys:
                del self._entries[key]
                self._used -= self._sizes.pop(key)
            return len(keys)

    def clear(self) -> None:
        """Drop everything."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._groups.clear()
            self._used = 0

    def _drop_group_member(self, key: Hashable) -> None:
        if self._group_of is None:
            return
        group = self._group_of(key)
        members = self._groups.get(group)
        if members is not None:
            members.discard(key)
            if not members:
                del self._groups[group]


_MISSING = object()
