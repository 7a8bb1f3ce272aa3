"""The version graph: temporal chain + derived-from forest for one object.

Paper §3: "Versions of an object should be ordered temporally according to
their creation time ... In addition, derived-from relationships reflecting
the derivation history of the versions of an object should also be
maintained."  Paper §4 adds the traversal primitives ``Dprevious`` (the
version this one was derived from) and ``Tprevious`` (the temporally
preceding version), and the deletion semantics of ``pdelete`` on a version
id.

Within one object, version serials are assigned monotonically, so the
*temporal chain* is simply the live serials in ascending order; deletion
splices the chain implicitly.  The *derived-from* relationship is a parent
pointer per version: a tree rooted at the first version, kept a tree by
re-parenting a deleted version's children to its parent -- a forest once
the root itself is deleted (its children become roots).

Terminology from the paper (§4):

* a child of ``v`` in the derivation tree is a **revision** of ``v``;
* two children of the same ``v`` are **variants** (or *alternatives*);
* the derivation path root → ... → ``v`` is the **version history** of ``v``;
* each leaf is "the most up-to-date version of an alternative design".

Nodes carry an opaque ``data`` slot used by the version store for payload
location; the graph itself never interprets it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator

from repro.errors import GraphInvariantError, UnknownVersionError


class VersionNode:
    """One version in the graph.  ``serial`` is unique within the object."""

    __slots__ = ("serial", "dprev", "children", "ctime", "data")

    def __init__(self, serial: int, dprev: int | None, ctime: float, data: Any = None) -> None:
        self.serial = serial
        self.dprev = dprev
        self.children: list[int] = []
        self.ctime = ctime
        self.data = data

    def __repr__(self) -> str:
        return f"VersionNode(serial={self.serial}, dprev={self.dprev})"


class VersionGraph:
    """Temporal chain and derivation forest over one object's versions."""

    def __init__(self) -> None:
        #: Live nodes in serial order, which is temporal order (a created
        #: serial exceeds every key, so it is appended).
        self._nodes: dict[int, VersionNode] = {}
        #: ``(serials, ctimes)`` for bisection, built on first use after a
        #: change (:meth:`_chain`).
        self._index: tuple[list[int], list[float]] | None = None
        self._latest: int | None = None
        self._max_serial = 0  # high-water mark; never reused
        #: Serials whose nodes this graph may change in place (None: all).
        self._owned: set[int] | None = None

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, serial: int) -> bool:
        return serial in self._nodes

    def node(self, serial: int) -> VersionNode:
        """The node for ``serial``; raises :class:`UnknownVersionError`."""
        try:
            return self._nodes[serial]
        except KeyError:
            raise UnknownVersionError(f"no live version with serial {serial}") from None

    def serials(self) -> list[int]:
        """Live serials in temporal (ascending) order (copy)."""
        return list(self._nodes)

    def latest(self) -> int | None:
        """Serial of the temporally latest version, or None when empty.

        This is what an object id dereferences to (paper §4: the object id
        "logically refers to the latest version of the object").
        """
        return self._latest

    def roots(self) -> list[int]:
        """Serials whose derivation parent is gone or never existed."""
        return [n.serial for n in self.walk_temporal() if n.dprev is None]

    def _chain(self) -> tuple[list[int], list[float]]:
        """The temporal chain's serials and creation times, for bisection."""
        index = self._index
        if index is None:
            nodes = self._nodes.values()
            index = self._index = ([n.serial for n in nodes], [n.ctime for n in nodes])
        return index

    @property
    def max_serial(self) -> int:
        """High-water mark of ever-assigned serials (serials never recycle)."""
        return self._max_serial

    # -- construction --------------------------------------------------------

    def create(self, serial: int, dprev: int | None, ctime: float, data: Any = None) -> VersionNode:
        """Add a version.  ``dprev`` is its derivation parent (None = root).

        The serial must exceed every serial ever assigned (which keeps the
        temporal chain in serial order).  ``ctime`` is clamped to the
        newest live version's when the clock has run backwards (an NTP
        step): ``latest_at`` bisects the creation times along the chain.
        """
        if serial in self._nodes:
            raise GraphInvariantError(f"serial {serial} already exists")
        if serial <= self._max_serial:
            raise GraphInvariantError(
                f"serial {serial} is not greater than high-water mark {self._max_serial}"
            )
        if self._latest is not None:
            ctime = max(ctime, self._nodes[self._latest].ctime)
        if dprev is not None:
            self.own(dprev).children.append(serial)
        node = VersionNode(serial, dprev, ctime, data)
        self._nodes[serial] = node
        if self._owned is not None:
            self._owned.add(serial)
        self._index = None
        self._latest = self._max_serial = serial
        return node

    def reserve(self, max_serial: int) -> None:
        """Raise the high-water mark to ``max_serial``: no serial up to it
        will be assigned (a copied history keeps its deleted serials dead)."""
        self._max_serial = max(self._max_serial, max_serial)

    def remove(self, serial: int) -> VersionNode:
        """Delete one version, splicing both relationships (paper §4.4):
        its derivation children are re-parented to its parent (or become
        roots).  Returns the removed node."""
        node = self.node(serial)
        parent_serial = node.dprev
        parent = None if parent_serial is None else self.own(parent_serial)
        if parent is not None:
            parent.children.remove(serial)
        for child_serial in node.children:
            self.own(child_serial).dprev = parent_serial
            if parent is not None:
                parent.children.append(child_serial)
        del self._nodes[serial]
        self._index = None
        if serial == self._latest:
            self._latest = next(reversed(self._nodes), None)
        return node

    # -- traversal (paper §4: Dprevious / Tprevious and duals) -----------------

    def dprevious(self, serial: int) -> int | None:
        """The version ``serial`` was derived from, or None for a root."""
        return self.node(serial).dprev

    def dnext(self, serial: int) -> list[int]:
        """Versions derived from ``serial`` (its revisions/variants), oldest first."""
        return sorted(self.node(serial).children)

    def latest_at(self, timestamp: float) -> int | None:
        """Serial of the newest version created at or before ``timestamp``.

        Binary search over the creation times, sorted along the temporal
        chain; among versions sharing a ctime the temporally latest wins.
        Returns None when every live version is newer.
        """
        order, ctimes = self._chain()
        idx = bisect_right(ctimes, timestamp)
        return order[idx - 1] if idx > 0 else None

    def tprevious(self, serial: int) -> int | None:
        """The temporally preceding live version, or None for the oldest."""
        self.node(serial)
        order = self._chain()[0]
        idx = bisect_left(order, serial)
        return order[idx - 1] if idx > 0 else None

    def tnext(self, serial: int) -> int | None:
        """The temporally following live version, or None for the latest."""
        self.node(serial)
        order = self._chain()[0]
        idx = bisect_left(order, serial)
        return order[idx + 1] if idx + 1 < len(order) else None

    def history(self, serial: int) -> list[int]:
        """The version history of ``serial``: the derivation path, newest first.

        Paper §4: "v3, v1, and v0 constitute a version history".
        """
        path: list[int] = []
        current: int | None = serial
        while current is not None:
            node = self.node(current)
            path.append(current)
            current = node.dprev
        return path

    def leaves(self) -> list[int]:
        """Serials with no derivation children -- the up-to-date alternatives."""
        return [n.serial for n in self.walk_temporal() if not n.children]

    def alternatives(self) -> list[list[int]]:
        """Every root-to-leaf derivation path, each oldest-first.

        Paper §4: "each path from the root of the derived-from tree to a
        leaf represents evolution of an alternative design".
        """
        paths: list[list[int]] = []
        for leaf in self.leaves():
            paths.append(list(reversed(self.history(leaf))))
        paths.sort()
        return paths

    def descendants(self, serial: int) -> list[int]:
        """All versions transitively derived from ``serial`` (sorted)."""
        out: list[int] = []
        stack = list(self.node(serial).children)
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._nodes[current].children)
        return sorted(out)

    def walk_temporal(self) -> Iterator[VersionNode]:
        """Yield live nodes oldest-first (the temporal chain)."""
        yield from list(self._nodes.values())

    def clone(self) -> VersionGraph:
        """A copy sharing every node with this graph until it changes one.

        A writer clones a published graph before mutating it, so pinned
        snapshot readers keep traversing the frozen original without a
        lock; a node is copied only when the clone first changes it
        (:meth:`own`), so a write costs the nodes it touches.
        """
        copy = VersionGraph()
        copy._nodes = self._nodes.copy()
        copy._latest, copy._max_serial = self._latest, self._max_serial
        copy._owned = set()
        return copy

    def own(self, serial: int) -> VersionNode:
        """The node for ``serial``, safe to change in place: a node still
        shared with the graph this one was cloned from is copied first."""
        node = self.node(serial)
        if self._owned is None or serial in self._owned:
            return node
        twin = VersionNode(serial, node.dprev, node.ctime, node.data)
        twin.children = list(node.children)
        self._nodes[serial] = twin
        self._owned.add(serial)
        return twin

    @staticmethod
    def build(
        rows: Iterable[tuple[int, int | None, float, Any]], max_serial: int
    ) -> VersionGraph:
        """A graph from its ``(serial, dprev, ctime, data)`` rows, any
        order, and its high-water mark; raises when they do not form one."""
        graph = VersionGraph()
        for serial, dprev, ctime, data in sorted(rows, key=lambda row: row[0]):
            graph._nodes[serial] = VersionNode(serial, dprev, ctime, data)
        for node in graph._nodes.values():
            parent = graph._nodes.get(node.dprev)
            if parent is not None:
                parent.children.append(node.serial)
        graph._latest = next(reversed(graph._nodes), None)
        graph._max_serial = max(max_serial, graph._latest or 0)
        graph.validate()
        return graph

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raises on violation."""
        order = list(self._nodes)
        ctimes = [node.ctime for node in self._nodes.values()]
        if order != sorted(order):
            raise GraphInvariantError("temporal chain out of serial order")
        if self._index is not None and self._index != (order, ctimes):
            raise GraphInvariantError("chain index out of sync with temporal chain")
        if any(a > b for a, b in zip(ctimes, ctimes[1:])):
            raise GraphInvariantError("creation times not sorted along temporal chain")
        if (order[-1] if order else None) != self._latest:
            raise GraphInvariantError("latest serial out of sync with temporal chain")
        if order and order[-1] > self._max_serial:
            raise GraphInvariantError("high-water mark below a live serial")
        for serial, node in self._nodes.items():
            if node.serial != serial:
                raise GraphInvariantError(f"node {serial} carries serial {node.serial}")
            if node.dprev is not None:
                if node.dprev not in self._nodes:
                    raise GraphInvariantError(
                        f"node {serial} derived from dead version {node.dprev}"
                    )
                if node.dprev >= serial:
                    raise GraphInvariantError(
                        f"node {serial} derived from a newer version {node.dprev}"
                    )
                if serial not in self._nodes[node.dprev].children:
                    raise GraphInvariantError(
                        f"node {serial} missing from parent {node.dprev}'s children"
                    )
            for child in node.children:
                if child not in self._nodes:
                    raise GraphInvariantError(f"node {serial} has dead child {child}")
                if self._nodes[child].dprev != serial:
                    raise GraphInvariantError(
                        f"child {child} does not point back to {serial}"
                    )
        # Acyclicity follows from dprev < serial, checked above.
