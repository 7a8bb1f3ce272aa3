"""Attribute indexes over clusters: associative access for queries.

Ode's query facility iterates clusters; for large clusters O++ relies on
the storage layer to provide associative access.  This module provides
hash indexes over one attribute of one cluster, kept consistent through
the store's event stream (the same observer surface the trigger facility
uses -- no kernel hooks were added for indexing).

An index maps ``attribute value -> set of Oids whose LATEST version has
that value``.  Indexing latest versions matches cluster-query semantics:
a query reads through generic references, so the index must reflect what
those reads would see.  ``over_versions`` queries are historical scans and
intentionally bypass indexes.

Indexes are in-memory and rebuilt on open (they are derived data; the
heap records are the durable truth); an undo refreshes the entries of the
objects it restored (:meth:`IndexManager.refresh`).
``IndexManager.ensure`` registers an index idempotently, and the query
layer consults :meth:`IndexManager.lookup` for equality predicates created
with :func:`attr_equals`.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.core.identity import Oid, Vid
from repro.core.surface import plain_id, type_name_of


class AttrEquals:
    """An indexable equality predicate: ``attr == value``.

    Usable directly as a query predicate (it is callable on a reference),
    and recognised by the query layer for index lookup.  References compare
    by their ids on both sides, as the index stores them: a read through a
    reference wraps a stored ``Vid`` as a ``VersionRef``.
    """

    __slots__ = ("attr", "value")

    def __init__(self, attr: str, value: Hashable) -> None:
        self.attr = attr
        self.value = plain_id(value)

    def __call__(self, ref: Any) -> bool:
        return plain_id(getattr(ref, self.attr, None)) == self.value

    def __repr__(self) -> str:
        return f"AttrEquals({self.attr!r}, {self.value!r})"


def attr_equals(attr: str, value: Hashable) -> AttrEquals:
    """Build an indexable ``attr == value`` predicate."""
    return AttrEquals(attr, value)


class AttrRange:
    """An indexable range predicate: ``lo <= attr <= hi`` (either side open).

    Usable directly as a query predicate; recognised by the query layer
    for ordered-index lookup.
    """

    __slots__ = ("attr", "lo", "hi")

    def __init__(self, attr: str, lo: Any = None, hi: Any = None) -> None:
        if lo is None and hi is None:
            raise ValueError("a range needs at least one bound")
        self.attr = attr
        self.lo = lo
        self.hi = hi

    def __call__(self, ref: Any) -> bool:
        value = getattr(ref, self.attr, None)
        if value is None:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def __repr__(self) -> str:
        return f"AttrRange({self.attr!r}, lo={self.lo!r}, hi={self.hi!r})"


def attr_between(attr: str, lo: Any = None, hi: Any = None) -> AttrRange:
    """Build an indexable ``lo <= attr <= hi`` predicate."""
    return AttrRange(attr, lo, hi)


class HashIndex:
    """One hash index: (cluster type name, attribute) -> Oid sets."""

    def __init__(self, type_name: str, attr: str) -> None:
        self.type_name = type_name
        self.attr = attr
        self._by_value: dict[Hashable, set[Oid]] = {}
        self._value_of: dict[Oid, Hashable] = {}
        #: Oids whose attribute value is unhashable or missing; they are
        #: excluded from the index and must be post-filtered by scans.
        self.unindexed: set[Oid] = set()

    def _extract(self, state: Any) -> tuple[bool, Hashable]:
        value = getattr(state, self.attr, None) if not isinstance(state, dict) else state.get(self.attr)
        try:
            hash(value)
        except TypeError:
            return False, None
        return True, value

    def put(self, oid: Oid, state: Any) -> None:
        """Insert or refresh one object's entry from its latest state."""
        self.remove(oid)
        ok, value = self._extract(state)
        if not ok:
            self.unindexed.add(oid)
            return
        self._by_value.setdefault(value, set()).add(oid)
        self._value_of[oid] = value

    def remove(self, oid: Oid) -> None:
        """Drop one object's entry (missing entries are fine)."""
        self.unindexed.discard(oid)
        if oid not in self._value_of:
            return
        value = self._value_of.pop(oid)
        bucket = self._by_value.get(value)
        if bucket is not None:
            bucket.discard(oid)
            if not bucket:
                del self._by_value[value]

    def lookup(self, value: Hashable) -> set[Oid]:
        """Oids whose latest version has ``attr == value`` (copy)."""
        return set(self._by_value.get(value, set()))

    def distinct_values(self) -> list[Hashable]:
        """Every indexed value (unsorted values may be mixed types)."""
        return list(self._by_value)

    def __len__(self) -> int:
        return len(self._value_of)


class OrderedIndex:
    """A sorted index over one attribute: supports range lookups.

    Kept as a sorted list of ``(value, oid)`` pairs (bisect-maintained).
    Values must be mutually comparable; an object whose value does not
    compare against the existing keys falls into ``unindexed`` and is
    post-filtered by scans, like the hash index's unhashable case.
    """

    def __init__(self, type_name: str, attr: str) -> None:
        self.type_name = type_name
        self.attr = attr
        self._pairs: list[tuple[Any, Oid]] = []
        self._value_of: dict[Oid, Any] = {}
        self.unindexed: set[Oid] = set()

    def put(self, oid: Oid, state: Any) -> None:
        """Insert or refresh one object's entry from its latest state."""
        from bisect import insort

        self.remove(oid)
        value = (
            state.get(self.attr) if isinstance(state, dict) else getattr(state, self.attr, None)
        )
        try:
            insort(self._pairs, (value, oid))
        except TypeError:
            self.unindexed.add(oid)
            return
        self._value_of[oid] = value

    def remove(self, oid: Oid) -> None:
        """Drop one object's entry (missing entries are fine)."""
        from bisect import bisect_left

        self.unindexed.discard(oid)
        if oid not in self._value_of:
            return
        value = self._value_of.pop(oid)
        idx = bisect_left(self._pairs, (value, oid))
        if idx < len(self._pairs) and self._pairs[idx] == (value, oid):
            del self._pairs[idx]

    def range(self, lo: Any = None, hi: Any = None) -> list[Oid]:
        """Oids with ``lo <= value <= hi`` (open sides with None), sorted by value."""
        from bisect import bisect_left, bisect_right

        start = 0 if lo is None else bisect_left(self._pairs, (lo,))
        if hi is None:
            end = len(self._pairs)
        else:
            # (hi, +inf oid): include every oid paired with value == hi.
            end = bisect_right(self._pairs, (hi, Oid(2**62)))
        return [oid for _value, oid in self._pairs[start:end]]

    def min_value(self) -> Any:
        """Smallest indexed value (None when empty)."""
        return self._pairs[0][0] if self._pairs else None

    def max_value(self) -> Any:
        """Largest indexed value (None when empty)."""
        return self._pairs[-1][0] if self._pairs else None

    def __len__(self) -> int:
        return len(self._value_of)


class IndexManager:
    """Registry of hash indexes over a store, fed by store events."""

    def __init__(self, store: Any) -> None:
        self._store = store
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self._ordered: dict[tuple[str, str], OrderedIndex] = {}
        store.add_observer(self._on_event)

    # -- registration ---------------------------------------------------------

    def ensure(self, type_or_name: type | str, attr: str) -> HashIndex:
        """Create (or return) the index on ``(cluster, attr)`` and build it."""
        type_name = type_name_of(type_or_name)
        key = (type_name, attr)
        index = self._indexes.get(key)
        if index is not None:
            return index
        index = HashIndex(type_name, attr)
        self._indexes[key] = index
        for ref in self._store.cluster(type_name):
            index.put(ref.oid, self._store.materialize(self._store.latest_vid(ref.oid)))
        return index

    def ensure_ordered(self, type_or_name: type | str, attr: str) -> OrderedIndex:
        """Create (or return) the ORDERED index on ``(cluster, attr)``."""
        type_name = type_name_of(type_or_name)
        key = (type_name, attr)
        index = self._ordered.get(key)
        if index is not None:
            return index
        index = OrderedIndex(type_name, attr)
        self._ordered[key] = index
        for ref in self._store.cluster(type_name):
            index.put(ref.oid, self._store.materialize(self._store.latest_vid(ref.oid)))
        return index

    def drop(self, type_or_name: type | str, attr: str) -> None:
        """Remove the hash and/or ordered index on ``(cluster, attr)``."""
        key = (type_name_of(type_or_name), attr)
        self._indexes.pop(key, None)
        self._ordered.pop(key, None)

    def get(self, type_or_name: type | str, attr: str) -> HashIndex | None:
        """The index on ``(cluster, attr)``, if registered."""
        return self._indexes.get((type_name_of(type_or_name), attr))

    def indexes(self) -> list[HashIndex]:
        """All registered indexes."""
        return list(self._indexes.values())

    # -- lookup (used by the query layer) ----------------------------------------

    def lookup(self, type_name: str, attr: str, value: Hashable) -> Iterable[Oid] | None:
        """Index lookup, or None when no index covers ``(cluster, attr)``.

        The result over-approximates by including unindexed oids (those
        must be post-filtered by the caller); it never misses a match.
        """
        index = self._indexes.get((type_name, attr))
        if index is None:
            return None
        return index.lookup(value) | set(index.unindexed)

    def lookup_range(
        self, type_name: str, attr: str, lo: Any, hi: Any
    ) -> Iterable[Oid] | None:
        """Ordered-index range probe, or None when not indexed.

        Over-approximates with unindexed oids, like :meth:`lookup`.
        """
        index = self._ordered.get((type_name, attr))
        if index is None:
            return None
        return list(index.range(lo, hi)) + sorted(index.unindexed)

    def refresh(self, oids: Iterable[Oid]) -> None:
        """Re-derive the entries of ``oids`` from the store (after an undo
        restored them: each may have changed, appeared or gone)."""
        for oid in oids:
            self._on_event("delete_object", oid, None)
            self._on_event("create", oid, None)

    # -- maintenance ----------------------------------------------------------------

    def _on_event(self, event: str, oid: Oid, vid: Vid | None) -> None:
        if not self._indexes and not self._ordered:
            return
        if event == "delete_object":
            for index in self._indexes.values():
                index.remove(oid)
            for ordered in self._ordered.values():
                ordered.remove(oid)
            return
        if event not in ("create", "newversion", "update", "delete_version"):
            return
        if not self._store.object_exists(oid):
            return
        type_name = self._store.type_name(oid)
        relevant: list[Any] = [
            index
            for (tname, _attr), index in self._indexes.items()
            if tname == type_name
        ]
        relevant += [
            ordered
            for (tname, _attr), ordered in self._ordered.items()
            if tname == type_name
        ]
        if not relevant:
            return
        # Only latest-version changes matter to the index.
        latest = self._store.latest_vid(oid)
        if event == "update" and vid is not None and vid != latest:
            return
        state = self._store.materialize(latest)
        for index in relevant:
            index.put(oid, state)
