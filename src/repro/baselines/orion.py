"""ORION's version model (Chou & Kim [13]), as the paper describes it.

Paper §7: "A comprehensive versioning model for public/private distributed
architecture of CAD systems has been developed as part of the ORION
project [13].  Versions can be transient, working, or released depending
upon their location in public, project, or private databases.  Versions
can be created by checkout and checkin, derivation, and promotion.  Only
objects of classes declared to be versionable can be versioned."

This is a semantic reimplementation for the paper's comparisons:

* **declared versionability** (vs Ode's orthogonality, experiment E6):
  objects of undeclared classes cannot be versioned; retrofitting
  versionability migrates the whole class extent into generic-header form;
* **generic object headers** (vs Ode's object-id-is-latest): a generic
  reference resolves through a header object holding a user-settable
  default version;
* **checkout / checkin / promotion across private / project / public
  databases** (vs Ode's single-database ``newversion``, experiment E10):
  each movement copies the version's state between databases.

State is stored serialized with the same codec as the kernel, so the
benchmark comparisons measure model differences, not codec differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BaselineError, CheckoutError, NotVersionableError
from repro.storage import serialization

#: Version statuses (by database residence).
TRANSIENT = "transient"  # private database; mutable, deletable
WORKING = "working"      # project database; immutable, derivable
RELEASED = "released"    # public database; immutable, permanent

#: Database tiers.
PRIVATE = "private"
PROJECT = "project"
PUBLIC = "public"

_STATUS_DB = {TRANSIENT: PRIVATE, WORKING: PROJECT, RELEASED: PUBLIC}


@dataclass
class OrionVersion:
    """One version instance living in one of the three databases."""

    number: int
    status: str
    derived_from: int | None
    payload: bytes

    def materialize(self) -> Any:
        """Decode a fresh copy of this version's object."""
        return serialization.decode(self.payload)


@dataclass
class GenericHeader:
    """ORION's generic object: the version-set header.

    Holds the version set and the *default version* that generic
    references resolve to.  (Ode deliberately has no such header -- paper
    §4: "an object id does not refer to a generic object header".)
    """

    object_id: int
    class_name: str
    versions: dict[int, OrionVersion] = field(default_factory=dict)
    default_version: int | None = None
    next_number: int = 1

    def resolve_default(self) -> OrionVersion:
        """The version a generic reference denotes."""
        if self.default_version is None:
            raise BaselineError(f"object {self.object_id} has no default version")
        return self.versions[self.default_version]


class OrionStore:
    """The three-tier ORION database with declared versionability."""

    def __init__(self) -> None:
        self._versionable: set[str] = set()
        self._headers: dict[int, GenericHeader] = {}
        # Unversioned instances: plain payloads, no header machinery.
        self._unversioned: dict[int, tuple[str, bytes]] = {}
        self._ids = itertools.count(1)
        #: Bytes copied by extent migrations (consumed by experiment E6).
        self.migration_bytes = 0
        #: Bytes copied across databases by checkout/checkin (E10).
        self.transfer_bytes = 0

    # -- class declarations -----------------------------------------------------

    def declare_versionable(self, class_name: str) -> None:
        """Declare a class versionable *at schema time* (the ORION way)."""
        self._versionable.add(class_name)

    def make_versionable(self, class_name: str) -> int:
        """Retrofit versionability: migrate the whole extent (E6's cost).

        Every existing unversioned instance of the class is copied into a
        generic header with one transient version.  Returns the number of
        migrated instances; ``migration_bytes`` accumulates the copy cost.
        """
        self._versionable.add(class_name)
        migrated = 0
        for object_id, (cls, payload) in list(self._unversioned.items()):
            if cls != class_name:
                continue
            header = GenericHeader(object_id, class_name)
            version = OrionVersion(1, TRANSIENT, None, bytes(payload))
            self.migration_bytes += len(payload)
            header.versions[1] = version
            header.default_version = 1
            header.next_number = 2
            self._headers[object_id] = header
            del self._unversioned[object_id]
            migrated += 1
        return migrated

    # -- object creation -----------------------------------------------------------

    def create(self, class_name: str, obj: Any) -> int:
        """Create an instance; versioned iff the class was declared."""
        object_id = next(self._ids)
        payload = serialization.encode(obj)
        if class_name in self._versionable:
            header = GenericHeader(object_id, class_name)
            header.versions[1] = OrionVersion(1, TRANSIENT, None, payload)
            header.default_version = 1
            header.next_number = 2
            self._headers[object_id] = header
        else:
            self._unversioned[object_id] = (class_name, payload)
        return object_id

    def header(self, object_id: int) -> GenericHeader:
        """The generic header (raises for unversioned objects)."""
        header = self._headers.get(object_id)
        if header is None:
            if object_id in self._unversioned:
                raise NotVersionableError(
                    f"object {object_id}'s class was not declared versionable"
                )
            raise BaselineError(f"no object {object_id}")
        return header

    # -- generic / specific dereference ------------------------------------------

    def deref_generic(self, object_id: int) -> Any:
        """Resolve a generic reference: header lookup + default version."""
        header = self._headers.get(object_id)
        if header is not None:
            return header.resolve_default().materialize()
        try:
            _cls, payload = self._unversioned[object_id]
        except KeyError:
            raise BaselineError(f"no object {object_id}") from None
        return serialization.decode(payload)

    def deref_specific(self, object_id: int, number: int) -> Any:
        """Resolve a specific reference to one version."""
        header = self.header(object_id)
        try:
            return header.versions[number].materialize()
        except KeyError:
            raise BaselineError(f"no version {number} of object {object_id}") from None

    def set_default(self, object_id: int, number: int) -> None:
        """Point the generic header's default at a version."""
        header = self.header(object_id)
        if number not in header.versions:
            raise BaselineError(f"no version {number} of object {object_id}")
        header.default_version = number

    # -- the checkout / checkin / promote cycle -------------------------------------

    def checkout(self, object_id: int, number: int | None = None) -> int:
        """Copy a working/released version into the private DB as transient.

        Returns the new transient version's number.  This is ORION's way to
        start an edit; the copy cost is the E10 comparison point against
        Ode's ``newversion``.
        """
        header = self.header(object_id)
        if number is None:
            number = header.default_version
        base = header.versions.get(number) if number is not None else None
        if base is None:
            raise CheckoutError(f"no version {number} of object {object_id}")
        if base.status == TRANSIENT:
            raise CheckoutError("transient versions are already checked out")
        new_number = header.next_number
        header.next_number += 1
        payload = bytes(base.payload)  # copy across databases
        self.transfer_bytes += len(payload)
        header.versions[new_number] = OrionVersion(
            new_number, TRANSIENT, base.number, payload
        )
        return new_number

    def update_transient(self, object_id: int, number: int, obj: Any) -> None:
        """Mutate a transient (checked-out) version in the private DB."""
        version = self.header(object_id).versions.get(number)
        if version is None or version.status != TRANSIENT:
            raise CheckoutError(f"version {number} is not checked out")
        version.payload = serialization.encode(obj)

    def checkin(self, object_id: int, number: int) -> None:
        """Promote transient -> working: copy private DB -> project DB."""
        version = self.header(object_id).versions.get(number)
        if version is None or version.status != TRANSIENT:
            raise CheckoutError(f"version {number} is not checked out")
        self.transfer_bytes += len(version.payload)  # cross-database move
        version.status = WORKING
        self.header(object_id).default_version = number

    def promote(self, object_id: int, number: int) -> None:
        """Promote working -> released: copy project DB -> public DB."""
        version = self.header(object_id).versions.get(number)
        if version is None or version.status != WORKING:
            raise CheckoutError(f"version {number} is not working")
        self.transfer_bytes += len(version.payload)
        version.status = RELEASED

    def derive(self, object_id: int, number: int) -> int:
        """Derive a new transient version from a working/released one."""
        return self.checkout(object_id, number)

    # -- introspection ---------------------------------------------------------------

    def database_of(self, object_id: int, number: int) -> str:
        """Which database tier the version resides in."""
        version = self.header(object_id).versions.get(number)
        if version is None:
            raise BaselineError(f"no version {number} of object {object_id}")
        return _STATUS_DB[version.status]

    def versions_of(self, object_id: int) -> list[int]:
        """Version numbers of an object, ascending."""
        return sorted(self.header(object_id).versions)
