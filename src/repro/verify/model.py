"""Sequential reference model of the paper's versioning semantics.

A deliberately naive, pure in-memory re-implementation of what the kernel
*means*: generic reference => temporally latest version, version id =>
that pinned version, ``newversion`` derives from its base and becomes the
latest, ``pdelete`` of a version splices both the temporal chain and the
derivation tree (children re-parent to the deleted version's parent),
``version_as_of`` answers by creation time.  No locks, no WAL, no caches,
no threads -- every operation is a few dict/list manipulations, written
independently of :mod:`repro.core.vgraph` (linear scans instead of
bisects, no shared code) so that agreement between the two is evidence,
not tautology.

The oracle (:mod:`repro.verify.oracle`) replays recorded transaction
histories against this model to decide serializability; the crash
matrix (:mod:`repro.tools.crashmatrix`) mirrors its workloads into it as
their ledger.  Both judge a real database the same way: :func:`history`
of its ``export()`` against :meth:`ModelStore.export`.  The property
tests (``tests/core/test_vgraph_properties.py``) drive the model in
lockstep with the real kernel under random operation sequences.

Objects are keyed by arbitrary hashable names chosen by the caller
(scenario-level keys, oids, whatever).  Creation times default to a
logical op counter; pass explicit ``ctime`` values to mirror a real run
(they are clamped to the newest live version's ctime exactly as
``VersionGraph.create`` clamps a rewound wall clock).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

Key = Hashable


class ModelError(Exception):
    """An operation the reference semantics reject (unknown key/serial...)."""


class _MVersion:
    __slots__ = ("serial", "dprev", "ctime", "value")

    def __init__(self, serial: int, dprev: int | None, ctime: float, value: Any) -> None:
        self.serial = serial
        self.dprev = dprev
        self.ctime = ctime
        self.value = value


class _MObject:
    __slots__ = ("versions", "max_serial")

    def __init__(self) -> None:
        self.versions: dict[int, _MVersion] = {}
        self.max_serial = 0


class ModelStore:
    """The reference implementation.  All operations are sequential."""

    def __init__(self) -> None:
        self._objects: dict[Key, _MObject] = {}
        self._clock = 0.0

    # -- internals -------------------------------------------------------------

    def _object(self, key: Key) -> _MObject:
        try:
            return self._objects[key]
        except KeyError:
            raise ModelError(f"no object {key!r}") from None

    def _version(self, key: Key, serial: int) -> _MVersion:
        obj = self._object(key)
        try:
            return obj.versions[serial]
        except KeyError:
            raise ModelError(f"no live version {serial} of {key!r}") from None

    def _chain(self, key: Key) -> list[int]:
        """Live serials in temporal order == ascending serial order."""
        return sorted(self._object(key).versions)

    def _tick(self, ctime: float | None, obj: _MObject) -> float:
        if ctime is None:
            self._clock += 1.0
            ctime = self._clock
        chain = sorted(obj.versions)
        if chain:
            newest = obj.versions[chain[-1]].ctime
            if ctime < newest:  # rewound clock: clamp, like vgraph.create
                ctime = newest
        return ctime

    # -- kernel operations -----------------------------------------------------

    def pnew(self, key: Key, value: Any, ctime: float | None = None) -> int:
        """Create object ``key`` with one version holding ``value``."""
        if key in self._objects:
            raise ModelError(f"object {key!r} already exists")
        obj = _MObject()
        self._objects[key] = obj
        serial = 1
        obj.versions[serial] = _MVersion(serial, None, self._tick(ctime, obj), value)
        obj.max_serial = serial
        return serial

    def newversion(
        self, key: Key, base: int | None = None, ctime: float | None = None
    ) -> tuple[int, int]:
        """Derive a new version; returns ``(serial, dprev)``.

        ``base=None`` is the generic-reference case: derive from the
        temporally latest version.  An explicit base serial is the
        specific-reference case (deriving from a non-latest base creates
        an alternative).
        """
        obj = self._object(key)
        if base is None:
            base = self.latest(key)
        elif base not in obj.versions:
            raise ModelError(f"no live version {base} of {key!r}")
        serial = obj.max_serial + 1
        obj.versions[serial] = _MVersion(
            serial, base, self._tick(ctime, obj), obj.versions[base].value
        )
        obj.max_serial = serial
        return serial, base

    def write(self, key: Key, value: Any, serial: int | None = None) -> int:
        """Overwrite a version's contents (latest when ``serial`` is None)."""
        if serial is None:
            serial = self.latest(key)
        self._version(key, serial).value = value
        return serial

    def read(self, key: Key, serial: int | None = None) -> Any:
        """A version's contents (the latest when ``serial`` is None)."""
        if serial is None:
            serial = self.latest(key)
        return self._version(key, serial).value

    def vdelete(self, key: Key, serial: int) -> None:
        """Delete one version (paper §4.4): children re-parent to its parent.

        Deleting the only version deletes the object, as ``pdelete`` does.
        """
        obj = self._object(key)
        victim = self._version(key, serial)
        if len(obj.versions) == 1:
            del self._objects[key]
            return
        for other in obj.versions.values():
            if other.dprev == serial:
                other.dprev = victim.dprev
        del obj.versions[serial]

    def odelete(self, key: Key) -> None:
        """Delete the whole object (every version)."""
        self._object(key)
        del self._objects[key]

    # -- retention --------------------------------------------------------------

    def doomed(
        self,
        key: Key,
        keep_last_n: int | None = None,
        keep_days: float | None = None,
        keep_tagged: bool = True,
        tags: Iterable[int] = (),
        now: float | None = None,
    ) -> list[int]:
        """Serials a retention policy displaces, oldest first (pure).

        The reference semantics, stated independently of the kernel's
        :func:`repro.core.gc.doomed_versions`: a wholly inactive policy
        (neither ``keep_last_n`` nor ``keep_days`` set) dooms nothing;
        the temporally latest version always survives; the protection
        rules are a *union* (recent by count, recent by age, tagged --
        any one of them shields a version).
        """
        if keep_last_n is None and keep_days is None:
            return []
        obj = self._object(key)
        chain = self._chain(key)
        if len(chain) <= 1:
            return []
        if now is None:
            now = self._clock
        tagged = set(tags) if keep_tagged else set()
        out: list[int] = []
        for position, serial in enumerate(chain):
            if serial == chain[-1]:
                continue  # the latest always survives
            if keep_last_n is not None and position >= len(chain) - keep_last_n:
                continue
            if keep_days is not None:
                if obj.versions[serial].ctime >= now - keep_days * 86400.0:
                    continue
            if serial in tagged:
                continue
            out.append(serial)
        return out

    def apply_retention(
        self,
        key: Key,
        keep_last_n: int | None = None,
        keep_days: float | None = None,
        keep_tagged: bool = True,
        tags: Iterable[int] = (),
        now: float | None = None,
    ) -> list[int]:
        """Delete what :meth:`doomed` selects; returns the deleted serials."""
        doomed = self.doomed(
            key,
            keep_last_n=keep_last_n,
            keep_days=keep_days,
            keep_tagged=keep_tagged,
            tags=tags,
            now=now,
        )
        for serial in doomed:
            self.vdelete(key, serial)
        return doomed

    # -- queries ---------------------------------------------------------------

    def exists(self, key: Key) -> bool:
        return key in self._objects

    def keys(self) -> list[Key]:
        return sorted(self._objects, key=repr)

    def serials(self, key: Key) -> list[int]:
        return self._chain(key)

    def latest(self, key: Key) -> int:
        chain = self._chain(key)
        if not chain:
            raise ModelError(f"object {key!r} has no versions")
        return chain[-1]

    def version_count(self, key: Key) -> int:
        return len(self._object(key).versions)

    # -- traversals (paper §4) -------------------------------------------------

    def dprevious(self, key: Key, serial: int) -> int | None:
        return self._version(key, serial).dprev

    def dnext(self, key: Key, serial: int) -> list[int]:
        self._version(key, serial)
        obj = self._object(key)
        return sorted(s for s, v in obj.versions.items() if v.dprev == serial)

    def tprevious(self, key: Key, serial: int) -> int | None:
        self._version(key, serial)
        older = [s for s in self._chain(key) if s < serial]
        return older[-1] if older else None

    def tnext(self, key: Key, serial: int) -> int | None:
        self._version(key, serial)
        newer = [s for s in self._chain(key) if s > serial]
        return newer[0] if newer else None

    def history(self, key: Key, serial: int) -> list[int]:
        """Derivation path of ``serial``, newest first."""
        path: list[int] = []
        current: int | None = serial
        while current is not None:
            path.append(current)
            current = self._version(key, current).dprev
        return path

    def leaves(self, key: Key) -> list[int]:
        obj = self._object(key)
        parents = {v.dprev for v in obj.versions.values() if v.dprev is not None}
        return [s for s in self._chain(key) if s not in parents]

    def alternatives(self, key: Key) -> list[list[int]]:
        paths = [list(reversed(self.history(key, leaf))) for leaf in self.leaves(key)]
        paths.sort()
        return paths

    def version_as_of(self, key: Key, timestamp: float) -> int | None:
        """Newest live version created at or before ``timestamp``."""
        best: int | None = None
        obj = self._object(key)
        for serial in self._chain(key):
            if obj.versions[serial].ctime <= timestamp:
                best = serial
        return best

    # -- state -----------------------------------------------------------------

    def clone(self) -> "ModelStore":
        copy = ModelStore()
        copy._clock = self._clock
        for key, obj in self._objects.items():
            twin = _MObject()
            twin.max_serial = obj.max_serial
            for serial, v in obj.versions.items():
                twin.versions[serial] = _MVersion(v.serial, v.dprev, v.ctime, v.value)
            copy._objects[key] = twin
        return copy

    def export(self, keys: Iterable[Key] | None = None) -> dict:
        """Comparable state: ``key -> (max_serial, ((serial, dprev, value),
        ...))`` per live object (of ``keys``, when given), rows in serial
        order -- the shape :func:`history` gives a real ``export()``.
        Creation times are left out (the real kernel stamps wall-clock
        time; the model a logical one)."""
        chosen = self._objects if keys is None else keys
        return {
            key: (
                obj.max_serial,
                tuple((s, v.dprev, v.value) for s, v in sorted(obj.versions.items())),
            )
            for key in chosen
            if (obj := self._objects.get(key)) is not None
        }


def history(rows: Iterable[tuple], value_of: Callable[[bytes], Any]) -> dict:
    """A real ``export()`` -- ``(oid, type_name, max_serial, [(serial,
    dprev, ctime, content)])`` rows -- in :meth:`ModelStore.export`'s
    shape, keyed by oid; ``value_of`` decodes each version's content."""
    return {
        oid: (
            max_serial,
            tuple((serial, dprev, value_of(content)) for serial, dprev, _, content in versions),
        )
        for oid, _type_name, max_serial, versions in rows
    }
