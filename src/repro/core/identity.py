"""Object ids and version ids -- the paper's two kinds of identity.

Paper §4: "O++ supports both object ids and version ids.  However, an
object id does not refer to a generic object header as in [6, 8]; rather,
it logically refers to the latest version of the object."

:class:`Oid` is the identity of a persistent *object* across all its
versions -- dereferencing it yields the **latest** version (generic /
dynamic / late binding).  :class:`Vid` names one specific version (specific
/ static binding).  Both are small immutable value types, hashable, totally
ordered, and registered with the stable codec so they can be embedded in
any persistent state (that is how inter-object references are stored).

A Vid carries the Oid of its object: given a specific version you can
always recover the object it belongs to (paper §4's ``version_of`` walk in
the other direction is the store's job).
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

from repro.storage import serialization

_OID = struct.Struct("<Q")
_VID = struct.Struct("<QQ")


@dataclass(frozen=True, order=True)
class Oid:
    """Identity of a persistent object (denotes its latest version)."""

    value: int

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"object ids are positive, got {self.value}")

    def __repr__(self) -> str:
        return f"Oid({self.value})"

    def pack(self) -> bytes:
        """8-byte little-endian encoding."""
        return _OID.pack(self.value)

    @staticmethod
    def unpack(raw: bytes) -> Oid:
        """Inverse of :meth:`pack`."""
        return Oid(_OID.unpack(raw)[0])


@dataclass(frozen=True, order=True)
class Vid:
    """Identity of one specific version of a persistent object.

    Ordering is ``(oid, serial)``; within one object the serial increases
    with creation time, so Vid order equals temporal order per object.
    """

    oid: Oid
    serial: int

    def __post_init__(self) -> None:
        if self.serial <= 0:
            raise ValueError(f"version serials are positive, got {self.serial}")

    def __repr__(self) -> str:
        return f"Vid({self.oid.value}:{self.serial})"

    def pack(self) -> bytes:
        """16-byte little-endian encoding."""
        return _VID.pack(self.oid.value, self.serial)

    @staticmethod
    def unpack(raw: bytes) -> Vid:
        """Inverse of :meth:`pack`."""
        value, serial = _VID.unpack(raw)
        return Vid(Oid(value), serial)


#: Sort / bisect key for oid-ordered sequences.  ``sorted(oids)`` runs the
#: dataclass-generated ``Oid.__lt__``, which builds two tuples per
#: comparison in Python; this reads the int once per element at C speed
#: and gives the same order.
oid_value = operator.attrgetter("value")


# Wire Oid/Vid into the stable codec (see repro.storage.serialization).
serialization.install_identity_codec(
    Oid, Oid.pack, Oid.unpack, Vid, Vid.pack, Vid.unpack
)
