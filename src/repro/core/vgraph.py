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
pointer per version.  It starts as a tree rooted at the first version; the
paper's figures draw it as a tree, and deleting a non-root version keeps it
a tree by re-parenting the deleted version's children to its parent.
Deleting the root promotes its children to roots, so in full generality the
structure is a forest -- the invariant checker accounts for that.

Terminology from the paper (§4):

* a child of ``v`` in the derivation tree is a **revision** of ``v``;
* two children of the same ``v`` are **variants** (or *alternatives*);
* the derivation path root → ... → ``v`` is the **version history** of ``v``;
* each leaf is "the most up-to-date version of an alternative design".

Nodes carry an opaque ``data`` slot used by the version store for payload
location; the graph itself never interprets it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator

from repro.errors import GraphInvariantError, UnknownVersionError


class VersionNode:
    """One version in the graph.  ``serial`` is unique within the object."""

    __slots__ = ("serial", "dprev", "children", "ctime", "data")

    def __init__(
        self,
        serial: int,
        dprev: int | None,
        ctime: float,
        data: Any = None,
    ) -> None:
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
        self._nodes: dict[int, VersionNode] = {}
        self._order: list[int] = []  # live serials, ascending == temporal
        self._ctimes: list[float] = []  # creation times, parallel to _order
        self._max_serial = 0  # high-water mark; never reused

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
        return list(self._order)

    def latest(self) -> int | None:
        """Serial of the temporally latest version, or None when empty.

        This is what an object id dereferences to (paper §4: the object id
        "logically refers to the latest version of the object").
        """
        return self._order[-1] if self._order else None

    def roots(self) -> list[int]:
        """Serials whose derivation parent is gone or never existed."""
        return [s for s in self._order if self._nodes[s].dprev is None]

    @property
    def max_serial(self) -> int:
        """High-water mark of ever-assigned serials (serials never recycle)."""
        return self._max_serial

    # -- construction --------------------------------------------------------

    def create(self, serial: int, dprev: int | None, ctime: float, data: Any = None) -> VersionNode:
        """Add a version.  ``dprev`` is its derivation parent (None = root).

        Serials must be fresh and strictly greater than every serial ever
        assigned, which is what keeps the temporal chain equal to serial
        order.

        ``ctime`` is clamped to the newest live version's creation time
        when the clock has run backwards (an NTP step): the temporal chain
        is ordered by *creation*, and ``latest_at`` bisects ``_ctimes``,
        so the list must stay sorted no matter what the wall clock does.
        """
        if serial in self._nodes:
            raise GraphInvariantError(f"serial {serial} already exists")
        if serial <= self._max_serial:
            raise GraphInvariantError(
                f"serial {serial} is not greater than high-water mark {self._max_serial}"
            )
        if self._ctimes and ctime < self._ctimes[-1]:
            ctime = self._ctimes[-1]
        if dprev is not None:
            parent = self.node(dprev)
            parent.children.append(serial)
        node = VersionNode(serial, dprev, ctime, data)
        self._nodes[serial] = node
        self._order.append(serial)
        self._ctimes.append(ctime)
        self._max_serial = serial
        return node

    def reserve(self, max_serial: int) -> None:
        """Raise the high-water mark to ``max_serial``: no serial up to it
        will be assigned (a copied history keeps its deleted serials dead)."""
        self._max_serial = max(self._max_serial, max_serial)

    def remove(self, serial: int) -> VersionNode:
        """Delete one version, splicing both relationships (paper §4.4).

        The deleted version's derivation children are re-parented to its
        derivation parent (they become roots if it had none).  The temporal
        chain splices by construction.  Returns the removed node.
        """
        node = self.node(serial)
        parent_serial = node.dprev
        if parent_serial is not None:
            parent = self._nodes[parent_serial]
            parent.children.remove(serial)
        for child_serial in node.children:
            child = self._nodes[child_serial]
            child.dprev = parent_serial
            if parent_serial is not None:
                self._nodes[parent_serial].children.append(child_serial)
        del self._nodes[serial]
        idx = bisect_left(self._order, serial)
        del self._order[idx]
        del self._ctimes[idx]
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

        Binary search over creation times: the temporal chain is totally
        ordered (serials are assigned monotonically, paper §3), so the
        ctime list is sorted in parallel with ``_order``.  Among versions
        sharing a ctime the temporally latest wins, matching a linear
        scan.  Returns None when every live version is newer.
        """
        idx = bisect_right(self._ctimes, timestamp)
        return self._order[idx - 1] if idx > 0 else None

    def tprevious(self, serial: int) -> int | None:
        """The temporally preceding live version, or None for the oldest."""
        self.node(serial)
        idx = bisect_left(self._order, serial)
        return self._order[idx - 1] if idx > 0 else None

    def tnext(self, serial: int) -> int | None:
        """The temporally following live version, or None for the latest."""
        self.node(serial)
        idx = bisect_left(self._order, serial)
        return self._order[idx + 1] if idx + 1 < len(self._order) else None

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
        return [s for s in self._order if not self._nodes[s].children]

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
        for serial in self._order:
            yield self._nodes[serial]

    def clone(self) -> VersionGraph:
        """A structurally independent copy sharing only the ``data`` payloads.

        The snapshot layer publishes graphs by reference and marks them
        shared; a writer about to mutate a shared graph clones it first
        (copy-on-write), so pinned snapshot readers keep traversing the
        frozen original without any lock.  ``data`` values (payload
        locations) are treated as immutable by the store -- every rewrite
        installs a fresh tuple -- so they can be shared.
        """
        copy = VersionGraph()
        for serial in self._order:
            node = self._nodes[serial]
            twin = VersionNode(serial, node.dprev, node.ctime, node.data)
            twin.children = list(node.children)
            copy._nodes[serial] = twin
        copy._order = list(self._order)
        copy._ctimes = list(self._ctimes)
        copy._max_serial = self._max_serial
        return copy

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raises on violation.

        Exercised directly by the property-based tests after random op
        sequences.
        """
        if sorted(self._nodes) != self._order:
            raise GraphInvariantError("temporal chain out of sync with node set")
        if self._ctimes != [self._nodes[s].ctime for s in self._order]:
            raise GraphInvariantError("ctime index out of sync with temporal chain")
        if any(a > b for a, b in zip(self._ctimes, self._ctimes[1:])):
            raise GraphInvariantError("creation times not sorted along temporal chain")
        if self._order and self._order[-1] > self._max_serial:
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

    # -- persistence ------------------------------------------------------------

    def to_state(self) -> tuple:
        """Codec-friendly snapshot: ``(max_serial, [(serial, dprev, ctime, data)...])``."""
        rows = [
            (n.serial, -1 if n.dprev is None else n.dprev, n.ctime, n.data)
            for n in self.walk_temporal()
        ]
        return (self._max_serial, rows)

    @staticmethod
    def from_state(state: tuple) -> VersionGraph:
        """Rebuild a graph from :meth:`to_state` output."""
        max_serial, rows = state
        graph = VersionGraph()
        for serial, dprev, ctime, data in rows:
            node = VersionNode(serial, None if dprev == -1 else dprev, ctime, data)
            graph._nodes[serial] = node
            insort(graph._order, serial)
        for node in graph._nodes.values():
            if node.dprev is not None:
                graph._nodes[node.dprev].children.append(node.serial)
        # Graphs persisted before ctime clamping existed may carry a
        # wall-clock regression; repair it the same way create() would have.
        floor = float("-inf")
        for serial in graph._order:
            node = graph._nodes[serial]
            if node.ctime < floor:
                node.ctime = floor
            else:
                floor = node.ctime
            graph._ctimes.append(node.ctime)
        graph._max_serial = max_serial
        graph.validate()
        return graph
