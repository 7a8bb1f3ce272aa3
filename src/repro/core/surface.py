"""The version-read surface, written once.

Paper §4 gives a versioned object a small set of reads: dereference an id,
walk the derived-from relationship (``Dprevious`` and its dual), walk the
temporal one (``Tprevious`` and its dual), and the whole-object views built
from them (history, versions, leaves, alternatives).  Six classes answer
those reads -- :class:`~repro.core.store.VersionStore`,
:class:`~repro.core.snapshot.Snapshot`,
:class:`~repro.core.database.Database`,
:class:`~repro.shard.router.ShardedDatabase`,
:class:`~repro.shard.snapshot.GlobalSnapshot` and
:class:`~repro.shard.router.ShardedReader` -- and they differ only in
*where* an object's version graph comes from: the live table, a pinned
epoch, the session's read context, the owning shard, the cut's part.

:class:`VersionReads` therefore implements every read here, from two
primitives its host supplies:

* ``graph(target) -> VersionGraph`` -- the graph of the object ``target``
  names, as this surface sees it (raises
  :class:`~repro.errors.UnknownObjectError` for a missing object);
* ``latest_vid(oid) -> Vid`` -- the version a generic id denotes.

The three sharded hosts inherit both, with their other per-object reads,
from :class:`~repro.shard.snapshot.Routed`.

**Argument rule.**  Every call takes a ``Ref``, ``Oid``, ``VersionRef`` or
``Vid``.  The version-scoped reads (``dprevious``, ``dnext``,
``tprevious``, ``tnext``, ``history``) read a generic id as the object's
latest version; the object-scoped ones (``versions``, ``version_as_of``,
``leaves``, ``alternatives``, ``version_count``, ``graph``) take the object
of whatever they are given.  A dead serial raises
:class:`~repro.errors.UnknownVersionError` (from
:meth:`VersionGraph.node <repro.core.vgraph.VersionGraph.node>`).

**Binding rule.**  Every reference returned is bound to the surface that
was asked, so reads through it resolve exactly where the question did:
against the same snapshot, transaction or cut.

The module is also the one home of the id coercions and of the
``type | str -> type name`` rule the cluster, index, query and retention
code share.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef
from repro.errors import DanglingReferenceError, UnknownObjectError
from repro.storage import serialization

Target = Ref | VersionRef | Oid | Vid


def oid_of(target: Target) -> Oid:
    """The object ``target`` names (a version names the object it belongs to)."""
    if isinstance(target, (Ref, VersionRef, Vid)):
        return target.oid
    if isinstance(target, Oid):
        return target
    raise TypeError(f"expected a reference or id, got {type(target).__qualname__}")


def plain_id(target: Target) -> Oid | Vid:
    """Strip the binding: a ``Ref`` gives its ``Oid``, a ``VersionRef`` its
    ``Vid``; plain ids pass through."""
    if isinstance(target, Ref):
        return target.oid
    if isinstance(target, VersionRef):
        return target.vid
    return target


def type_name_of(type_or_name: type | str) -> str:
    """The stable type name a cluster is keyed by.

    A string is taken as the name; a class gives its registered name, or
    the qualified name ``pnew`` would auto-register it under.
    """
    if isinstance(type_or_name, str):
        return type_or_name
    name = serialization.registered_name(type_or_name)
    if name is not None:
        return name
    return f"{type_or_name.__module__}.{type_or_name.__qualname__}"


class VersionReads:
    """``deref`` and the paper-§4 traversals over ``graph`` / ``latest_vid``."""

    # -- coercion and binding ---------------------------------------------------

    def _vid_of(self, target: Target) -> Vid:
        """The version ``target`` denotes; a generic id means the latest."""
        if isinstance(target, VersionRef):
            return target.vid
        if isinstance(target, Vid):
            return target
        oid = oid_of(target)
        try:
            return self.latest_vid(oid)
        except DanglingReferenceError:
            raise UnknownObjectError(f"no persistent object {oid!r}") from None

    def _vref(self, oid: Oid, serial: int | None) -> VersionRef | None:
        return None if serial is None else VersionRef(self, Vid(oid, serial))

    def _vrefs(self, oid: Oid, serials: Iterable[int]) -> list[VersionRef]:
        return [VersionRef(self, Vid(oid, s)) for s in serials]

    def deref(self, ident: Oid | Vid) -> Ref | VersionRef:
        """Bind an id into a reference: Oid -> Ref (generic), Vid -> VersionRef."""
        if isinstance(ident, Oid):
            return Ref(self, ident)
        if isinstance(ident, Vid):
            return VersionRef(self, ident)
        raise TypeError(f"expected Oid or Vid, got {type(ident).__qualname__}")

    # -- version-scoped (paper §4: Dprevious / Tprevious and duals) -------------

    def dprevious(self, target: Target) -> VersionRef | None:
        """The version ``target`` was derived from, or None for an initial version."""
        vid = self._vid_of(target)
        return self._vref(vid.oid, self.graph(vid.oid).dprevious(vid.serial))

    def dnext(self, target: Target) -> list[VersionRef]:
        """Versions derived from ``target`` (its revisions and variants)."""
        vid = self._vid_of(target)
        return self._vrefs(vid.oid, self.graph(vid.oid).dnext(vid.serial))

    def tprevious(self, target: Target) -> VersionRef | None:
        """The temporally preceding version, or None for the oldest."""
        vid = self._vid_of(target)
        return self._vref(vid.oid, self.graph(vid.oid).tprevious(vid.serial))

    def tnext(self, target: Target) -> VersionRef | None:
        """The temporally following version, or None for the latest."""
        vid = self._vid_of(target)
        return self._vref(vid.oid, self.graph(vid.oid).tnext(vid.serial))

    def history(self, target: Target) -> list[VersionRef]:
        """The derivation path of ``target``, newest first (paper §4.3)."""
        vid = self._vid_of(target)
        return self._vrefs(vid.oid, self.graph(vid.oid).history(vid.serial))

    # -- object-scoped -----------------------------------------------------------

    def versions(self, target: Target) -> list[VersionRef]:
        """All live versions of the object, temporal order (oldest first)."""
        oid = oid_of(target)
        return self._vrefs(oid, self.graph(oid).serials())

    def version_as_of(self, target: Target, timestamp: float) -> VersionRef | None:
        """The version that was latest at wall-clock ``timestamp``.

        Paper §3 motivates temporal order with historical databases "that
        must access the past states of the database" and "supporting time
        in databases" [30]: every version records its creation time, so
        the state as of any instant is the newest version created at or
        before it.  Returns None when the object did not exist yet.
        (Versions deleted since then are gone -- pdelete is a real delete,
        not a logical one.)
        """
        oid = oid_of(target)
        return self._vref(oid, self.graph(oid).latest_at(timestamp))

    def leaves(self, target: Target) -> list[VersionRef]:
        """The up-to-date version of every alternative (derivation leaves)."""
        oid = oid_of(target)
        return self._vrefs(oid, self.graph(oid).leaves())

    def alternatives(self, target: Target) -> list[list[VersionRef]]:
        """Every root-to-leaf derivation path (paper §4: alternative designs)."""
        oid = oid_of(target)
        return [self._vrefs(oid, path) for path in self.graph(oid).alternatives()]

    def version_count(self, target: Target) -> int:
        """Number of live versions of the object."""
        return len(self.graph(target))
