"""Version percolation as an opt-in policy.

Paper §3, under "small changes should have small impact": "we do not
provide version percolation [5, 13, 34] because creating a new version can
lead to the automatic creation of a large number of versions of other
objects.  Users may implement version percolation as a policy by using
other O++ facilities."

This module is that user-level implementation, and experiment E8 measures
exactly the fan-out cost the paper avoids by keeping percolation out of
the kernel.

Percolation semantics (following ORION [13] and Atwood [5]): when a new
version of object ``X`` is created, every object whose current version
*references* ``X`` gets a new version too, transitively up the composition
graph.  If a referencing object held a **specific** reference (a Vid of
the base version), the percolated version is updated to reference the new
version; **generic** references (Oids) need no rewrite -- which is itself
a nice demonstration of why the paper prefers generic references for
composite structures.

Referencers are found either through an explicitly registered composite
registry (fast) or by scanning all latest versions for id references
(complete).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef
from repro.core.surface import oid_of, plain_id


def ids_in_state(value: Any) -> set[Oid | Vid]:
    """Collect every Oid/Vid reachable in a decoded state value."""
    found: set[Oid | Vid] = set()
    _collect(value, found)
    return found


def _collect(value: Any, found: set[Oid | Vid]) -> None:
    if isinstance(value, (Oid, Vid)):
        found.add(value)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _collect(item, found)
    elif isinstance(value, dict):
        for key, val in value.items():
            _collect(key, found)
            _collect(val, found)
    elif hasattr(value, "__dict__"):
        _collect(dict(value.__dict__), found)


def find_referencers(db: Database, target: Oid) -> list[Oid]:
    """Objects whose *latest* version references ``target`` (by Oid or Vid).

    Complete but O(database): scans every object's latest state.  The
    composite registry below avoids the scan when the application declares
    its composition links.
    """
    referencers: list[Oid] = []
    for ref in db.store.all_objects():
        if ref.oid == target:
            continue
        state = db.materialize(db.latest_vid(ref.oid))
        ids = ids_in_state(state)
        if any(
            (isinstance(i, Oid) and i == target)
            or (isinstance(i, Vid) and i.oid == target)
            for i in ids
        ):
            referencers.append(ref.oid)
    return sorted(referencers)


@dataclass
class PercolationResult:
    """What one percolation pass did (asserted on by tests and E8)."""

    trigger: Vid
    created: list[Vid] = field(default_factory=list)
    rewritten_pins: int = 0

    @property
    def fan_out(self) -> int:
        """Number of extra versions created beyond the triggering one."""
        return len(self.created)


class CompositeRegistry:
    """Explicit composition links: component oid -> parent oids.

    Applications that know their composite structure register links once;
    percolation then follows them instead of scanning the database.
    """

    def __init__(self) -> None:
        self._parents: dict[Oid, set[Oid]] = {}

    def link(self, parent: Ref | Oid, component: Ref | Oid) -> None:
        """Declare that ``parent`` references ``component``."""
        parent_oid = oid_of(parent)
        component_oid = oid_of(component)
        self._parents.setdefault(component_oid, set()).add(parent_oid)

    def unlink(self, parent: Ref | Oid, component: Ref | Oid) -> None:
        """Remove a declared link (missing links are ignored)."""
        parent_oid = oid_of(parent)
        component_oid = oid_of(component)
        self._parents.get(component_oid, set()).discard(parent_oid)

    def parents_of(self, component: Oid) -> list[Oid]:
        """Declared parents of ``component``, sorted."""
        return sorted(self._parents.get(component, set()))


def percolate(
    db: Database,
    new_version: VersionRef | Vid,
    registry: CompositeRegistry | None = None,
    max_depth: int | None = None,
) -> PercolationResult:
    """Propagate a new version up the composition graph.

    ``new_version`` is the version whose creation should percolate.  For
    every (transitive) referencer a new version is created; specific
    references to the old version are re-pinned to the corresponding new
    version.  ``max_depth`` bounds the propagation (None = unbounded).

    The whole pass runs as one retried transaction
    (:meth:`~repro.core.database.Database.run_transaction`): percolation
    touches many objects and is precisely the fan-out shape that deadlocks
    against concurrent mutators, and a half-percolated graph (some parents
    versioned, some not) must never be observable.  Each retry rebuilds
    the result from scratch, so partial results from a lost attempt never
    leak into the returned record.

    Returns a :class:`PercolationResult` recording every version created
    -- the paper's argument is precisely that this list can get long.
    """
    return db.run_transaction(
        lambda: _percolate_once(db, new_version, registry, max_depth)
    )


def _percolate_once(
    db: Database,
    new_version: VersionRef | Vid,
    registry: CompositeRegistry | None,
    max_depth: int | None,
) -> PercolationResult:
    vid = plain_id(new_version)
    result = PercolationResult(trigger=vid)
    # old vid -> new vid, so pins can be rewritten at any depth.
    replacement: dict[Vid, Vid] = {}
    base = db.dprevious(vid)
    if base is not None:
        replacement[base.vid] = vid
    frontier = [vid.oid]
    visited = {vid.oid}
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier: list[Oid] = []
        for component in frontier:
            if registry is not None:
                parents = registry.parents_of(component)
            else:
                parents = find_referencers(db, component)
            for parent in parents:
                if parent in visited:
                    continue
                visited.add(parent)
                old_latest = db.latest_vid(parent)
                new_parent = db.newversion(db.deref(parent))
                replacement[old_latest] = new_parent.vid
                result.created.append(new_parent.vid)
                result.rewritten_pins += _rewrite_pins(db, new_parent, replacement)
                next_frontier.append(parent)
        frontier = next_frontier
    return result


def _rewrite_pins(
    db: Database, version: VersionRef, replacement: dict[Vid, Vid]
) -> int:
    """Replace pinned Vids per ``replacement`` in one version's state."""
    state = db.materialize(version.vid)
    count, new_state = _substitute(state, replacement)
    if count:
        db.write_version(version.vid, new_state)
    return count


def _substitute(value: Any, replacement: dict[Vid, Vid]) -> tuple[int, Any]:
    if isinstance(value, Vid):
        new = replacement.get(value)
        return (1, new) if new is not None else (0, value)
    if isinstance(value, list):
        total = 0
        out = []
        for item in value:
            n, new_item = _substitute(item, replacement)
            total += n
            out.append(new_item)
        return total, out
    if isinstance(value, tuple):
        total = 0
        out_t = []
        for item in value:
            n, new_item = _substitute(item, replacement)
            total += n
            out_t.append(new_item)
        return total, tuple(out_t)
    if isinstance(value, (set, frozenset)):
        total = 0
        out_s = []
        for item in value:
            n, new_item = _substitute(item, replacement)
            total += n
            out_s.append(new_item)
        rebuilt = set(out_s) if isinstance(value, set) else frozenset(out_s)
        return total, rebuilt
    if isinstance(value, dict):
        total = 0
        out_d = {}
        for key, val in value.items():
            nk, new_key = _substitute(key, replacement)
            nv, new_val = _substitute(val, replacement)
            total += nk + nv
            out_d[new_key] = new_val
        return total, out_d
    if hasattr(value, "__dict__"):
        total = 0
        for attr, val in list(value.__dict__.items()):
            n, new_val = _substitute(val, replacement)
            if n:
                setattr(value, attr, new_val)
            total += n
        return total, value
    return 0, value
