"""Associative queries over clusters -- O++'s ``for ... suchthat`` loops.

Ode groups persistent objects of one type into a *cluster* and O++ iterates
them with ``for p in persons suchthat (p->age > 65)``.  The Python analogue
is a small fluent query object over the store's clusters:

    for p in db.query(Person).suchthat(lambda p: p.age > 65):
        ...

The iteration variable is a generic :class:`~repro.core.pointers.Ref`, so
predicates read through the *latest* version of each object -- exactly the
binding an O++ cluster loop sees.  ``over_versions()`` switches the
iteration domain to every live version of every object (specific
references), which is how historical queries (experiment E12) scan the
past states the paper's §3 motivates.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.core.indexes import AttrEquals, AttrRange
from repro.core.pointers import Ref, VersionRef
from repro.core.surface import type_name_of

Predicate = Callable[[Any], bool]


class QueryTerminals:
    """The result terminals, each defined from ``__iter__`` alone.

    Shared by :class:`Query` and the router's fan-out query, so every
    query surface ends the same way.
    """

    def all(self) -> list[Ref | VersionRef]:
        """Materialize the result list."""
        return list(self)

    def first(self) -> Ref | VersionRef | None:
        """The first match, or None."""
        for ref in self:
            return ref
        return None

    def count(self) -> int:
        """Number of matches."""
        return sum(1 for _ in self)

    def exists(self) -> bool:
        """True if any object matches."""
        return self.first() is not None

    def select(self, projector: Callable[[Any], Any]) -> list[Any]:
        """Apply ``projector`` to each match and collect the results."""
        return [projector(ref) for ref in self]

    def order_by(self, key: Callable[[Any], Any], reverse: bool = False) -> list[Ref | VersionRef]:
        """Materialize the matches sorted by ``key(ref)``."""
        return sorted(self, key=key, reverse=reverse)

    def limit(self, n: int) -> list[Ref | VersionRef]:
        """At most the first ``n`` matches, in iteration order."""
        if n < 0:
            raise ValueError("limit must be non-negative")
        out: list[Ref | VersionRef] = []
        for ref in self:
            if len(out) == n:
                break
            out.append(ref)
        return out


class Query(QueryTerminals):
    """A lazily evaluated filtered iteration over one cluster."""

    def __init__(self, store: Any, type_or_name: type | str) -> None:
        self._store = store
        self._type = type_or_name
        self._predicates: list[Predicate] = []
        self._versions = False

    def suchthat(self, predicate: Predicate) -> "Query":
        """Add a filter (predicates conjoin).  Returns a new query."""
        query = self._clone()
        query._predicates.append(predicate)
        return query

    def over_versions(self) -> "Query":
        """Iterate every live *version* (VersionRefs) instead of objects."""
        query = self._clone()
        query._versions = True
        return query

    def _clone(self) -> "Query":
        query = Query(self._store, self._type)
        query._predicates = list(self._predicates)
        query._versions = self._versions
        return query

    def _domain(self) -> Iterator[Ref | VersionRef]:
        refs = self._indexed_domain()
        if refs is None:
            refs = self._store.cluster(self._type)
        if not self._versions:
            yield from refs
            return
        for ref in refs:
            yield from self._store.versions(ref.oid)

    def _indexed_domain(self) -> list[Ref] | None:
        """Narrow the domain through a hash index when one applies.

        Requires a latest-version (non-``over_versions``) query with an
        :class:`AttrEquals` predicate over an attribute the database has
        an index for.  The index may over-approximate (unindexable
        values); the predicate still runs on every candidate.
        """
        if self._versions:
            return None
        lookup = getattr(self._store, "index_lookup", None)
        if lookup is None:
            return None
        type_name = type_name_of(self._type)
        for predicate in self._predicates:
            if isinstance(predicate, AttrEquals):
                oids = lookup(type_name, predicate.attr, predicate.value)
                if oids is not None:
                    return [Ref(self._store, oid) for oid in oids]
        range_lookup = getattr(self._store, "index_lookup_range", None)
        if range_lookup is not None:
            for predicate in self._predicates:
                if isinstance(predicate, AttrRange):
                    oids = range_lookup(
                        type_name, predicate.attr, predicate.lo, predicate.hi
                    )
                    if oids is not None:
                        return [Ref(self._store, oid) for oid in oids]
        return None

    def __iter__(self) -> Iterator[Ref | VersionRef]:
        for ref in self._domain():
            if all(pred(ref) for pred in self._predicates):
                yield ref
