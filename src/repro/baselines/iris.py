"""IRIS's version model (Beech & Mahbod [8]), as the paper describes it.

Paper §3/§7: "In IRIS, a previously unversioned object can be versioned,
but it has to go through a transformation procedure" -- versioning is
orthogonal to type (unlike ORION), but *not free at versioning time*
(unlike Ode, where any object can gain a second version with no
transformation at all).

The transformation procedure, per the IRIS design: the unversioned object
becomes a *generic object*; its state is copied into a new first-version
instance; and every stored reference to the object now goes through the
generic object for default resolution.  We reproduce the costs:

* copying the object's state (O(object size));
* rewriting the reference table entries that pointed at the unversioned
  instance (O(#references), simulated through an explicit reference
  registry, since IRIS tracked references through its object manager).

Experiment E6 measures this transformation against Ode's free
``newversion`` and ORION's extent migration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BaselineError
from repro.storage import serialization


@dataclass
class IrisVersion:
    """One version instance of a versioned IRIS object."""

    number: int
    payload: bytes

    def materialize(self) -> Any:
        """Decode a fresh copy."""
        return serialization.decode(self.payload)


@dataclass
class IrisObject:
    """An IRIS object: unversioned payload or generic + version set."""

    object_id: int
    versioned: bool
    payload: bytes | None = None  # unversioned form
    versions: dict[int, IrisVersion] = field(default_factory=dict)
    default_version: int | None = None
    next_number: int = 1


class IrisStore:
    """IRIS-style store: version anything, after a transformation."""

    def __init__(self) -> None:
        self._objects: dict[int, IrisObject] = {}
        self._ids = itertools.count(1)
        # reference registry: target object id -> referencing object ids.
        self._references: dict[int, set[int]] = {}
        #: Work done by transformations (consumed by experiment E6).
        self.transform_bytes = 0
        self.references_rewritten = 0

    def create(self, obj: Any, references: list[int] | None = None) -> int:
        """Create an unversioned object; ``references`` lists objects it points at."""
        object_id = next(self._ids)
        payload = serialization.encode(obj)
        self._objects[object_id] = IrisObject(object_id, False, payload=payload)
        for target in references or ():
            self._references.setdefault(target, set()).add(object_id)
        return object_id

    def _object(self, object_id: int) -> IrisObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise BaselineError(f"no object {object_id}") from None

    def transform_to_versioned(self, object_id: int) -> None:
        """The IRIS transformation procedure (the E6 cost).

        Copies the object's state into a first version under a generic
        object, and rewrites every registered inbound reference to resolve
        through the generic object.  Idempotent by refusal: transforming a
        versioned object raises.
        """
        record = self._object(object_id)
        if record.versioned:
            raise BaselineError(f"object {object_id} is already versioned")
        assert record.payload is not None
        payload = bytes(record.payload)  # the state copy
        self.transform_bytes += len(payload)
        record.versions[1] = IrisVersion(1, payload)
        record.default_version = 1
        record.next_number = 2
        record.versioned = True
        record.payload = None
        # Reference rewriting: each inbound reference is re-bound to the
        # generic object (unit of work per reference).
        inbound = self._references.get(object_id, set())
        self.references_rewritten += len(inbound)

    def new_version(self, object_id: int) -> int:
        """Create a version; requires the object to be versioned already.

        The Ode comparison point: in Ode this works on *any* object with no
        prior step, while IRIS callers must first pay
        :meth:`transform_to_versioned`.
        """
        record = self._object(object_id)
        if not record.versioned:
            raise BaselineError(
                f"object {object_id} must be transformed before versioning"
            )
        assert record.default_version is not None
        base = record.versions[record.default_version]
        number = record.next_number
        record.next_number += 1
        record.versions[number] = IrisVersion(number, bytes(base.payload))
        record.default_version = number
        return number

    def update(self, object_id: int, obj: Any, number: int | None = None) -> None:
        """Mutate the object (its default version when versioned)."""
        record = self._object(object_id)
        payload = serialization.encode(obj)
        if not record.versioned:
            record.payload = payload
            return
        if number is None:
            number = record.default_version
        version = record.versions.get(number) if number is not None else None
        if version is None:
            raise BaselineError(f"no version {number} of object {object_id}")
        version.payload = payload

    def deref_generic(self, object_id: int) -> Any:
        """Generic dereference: default version (or the unversioned state)."""
        record = self._object(object_id)
        if not record.versioned:
            assert record.payload is not None
            return serialization.decode(record.payload)
        assert record.default_version is not None
        return record.versions[record.default_version].materialize()

    def deref_specific(self, object_id: int, number: int) -> Any:
        """Specific dereference to one version."""
        record = self._object(object_id)
        if not record.versioned:
            raise BaselineError(f"object {object_id} is not versioned")
        try:
            return record.versions[number].materialize()
        except KeyError:
            raise BaselineError(f"no version {number} of object {object_id}") from None

    def versions_of(self, object_id: int) -> list[int]:
        """Version numbers, ascending (empty for unversioned objects)."""
        return sorted(self._object(object_id).versions)
