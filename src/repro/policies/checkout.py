"""The ORION checkout/checkin model, implemented *on* the Ode kernel.

Paper §7: "O++ culls out kernel features from these proposals and provides
primitives within the framework of an object-oriented language for
implementing a variety of versioning models and application-specific
systems."  This module is the proof for the flagship rival: the ORION
version model [13] -- transient/working/released statuses, three database
tiers, checkout/checkin/promotion -- expressed entirely through public
kernel primitives:

* versions: the kernel's `newversion` (ORION's derivation);
* statuses: a :class:`~repro.policies.environments.VersionEnvironment`
  with the ORION state machine (transient -> working -> released);
* database tiers: *derived* from status, exactly as ORION ties residency
  to status (private=transient, project=working, public=released);
* mutability rules: transient versions are editable, working/released are
  not -- enforced by this policy before it touches the kernel;
* generic-reference default: ORION resolves a generic reference through a
  header's default version; here the policy tracks the default explicitly
  (the kernel's own object id keeps denoting the temporally latest
  version, which the policy deliberately does not use).

Because this runs on the same disk substrate as the kernel, experiment
E10 can compare the checkout/checkin discipline against raw ``newversion``
*fairly* -- same pages, same WAL, same codec.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CheckoutError, PolicyError
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.persistent import persistent
from repro.core.pointers import Ref, VersionRef
from repro.core.surface import oid_of, plain_id
from repro.policies.environments import VersionEnvironment

#: ORION statuses.
TRANSIENT = "transient"
WORKING = "working"
RELEASED = "released"

#: Database tiers, derived from status.
_TIER_OF = {TRANSIENT: "private", WORKING: "project", RELEASED: "public"}

_ORION_STATES = (TRANSIENT, WORKING, RELEASED)
_ORION_TRANSITIONS = {
    TRANSIENT: (WORKING,),
    WORKING: (RELEASED,),
    RELEASED: (),
}


@persistent(name="ode.policies.CheckoutControl")
class CheckoutControl:
    """Per-model bookkeeping: defaults per object (the 'generic header').

    Plain codec state: ``defaults`` maps Oid -> Vid, standing in for
    ORION's generic-header default-version pointer.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.defaults: dict[Oid, Vid] = {}


class OrionOnOde:
    """The ORION versioning discipline over an open Ode database.

    Construct once per database::

        model = OrionOnOde(db)
        oid   = model.create(Design(...)).oid
        model.checkin(first)                  # transient -> working
        edit  = model.checkout(oid)           # copy-derive a transient
        edit.field = ...                      # only transients are editable
        model.checkin(edit)
        model.promote(edit)                   # working -> released
    """

    def __init__(self, db: Database, name: str = "orion") -> None:
        self._db = db
        self._env: Ref = db.pnew(
            VersionEnvironment(
                f"{name}.status",
                states=_ORION_STATES,
                transitions=_ORION_TRANSITIONS,
            )
        )
        self._control: Ref = db.pnew(CheckoutControl(name))

    # -- object lifecycle ---------------------------------------------------

    def create(self, obj: Any) -> VersionRef:
        """Create an object; its first version is transient (private DB).

        Runs as one retried transaction (``run_transaction``): the pnew
        and the default-pointer update land atomically, and a deadlock
        with a concurrent model operation re-runs the whole step.
        """

        def step() -> VersionRef:
            ref = self._db.pnew(obj)
            first = ref.pin()
            with self._control.modify() as control:
                control.defaults[ref.oid] = first.vid
            return first

        return self._db.run_transaction(step)

    # -- status queries ----------------------------------------------------------

    def status(self, vref: VersionRef | Vid) -> str:
        """transient / working / released."""
        vid = plain_id(vref)
        return self._env.state_of(vid)

    def database_of(self, vref: VersionRef | Vid) -> str:
        """private / project / public -- derived from status, as in ORION."""
        return _TIER_OF[self.status(vref)]

    def default_version(self, target: Ref | Oid) -> VersionRef:
        """What a generic reference denotes under this model."""
        oid = oid_of(target)
        # deref() yields the raw state (ids unwrapped), unlike attribute
        # reads through the proxy which re-bind ids to references.
        vid = self._control.deref().defaults.get(oid)
        if vid is None:
            raise PolicyError(f"object {oid!r} is not managed by this model")
        return self._db.deref(vid)

    def deref_generic(self, target: Ref | Oid) -> Any:
        """Resolve generic reference -> default version -> object copy."""
        return self.default_version(target).deref()

    # -- the edit cycle -----------------------------------------------------------

    def update(self, vref: VersionRef, **fields: Any) -> None:
        """Edit a version in place; only transient versions are mutable.

        The status check and the write run in one retried transaction, so
        a concurrent checkin cannot slip between them.
        """

        def step() -> None:
            if self.status(vref) != TRANSIENT:
                raise CheckoutError(
                    f"{vref!r} is {self.status(vref)}; only transient versions "
                    "are editable -- checkout first"
                )
            with vref.modify() as obj:
                for key, value in fields.items():
                    setattr(obj, key, value)

        self._db.run_transaction(step)

    def checkout(self, target: Ref | Oid, version: VersionRef | None = None) -> VersionRef:
        """Derive a new transient version from a working/released one.

        ORION's checkout copies into the private database; here the copy
        is the kernel's ``newversion`` (which starts as a copy of its
        base) -- one call, same semantics, no cross-database transfer.
        Status check + derive run as one retried transaction.
        """

        def step() -> VersionRef:
            base = version if version is not None else self.default_version(target)
            if self.status(base) == TRANSIENT:
                raise CheckoutError("transient versions are already checked out")
            return self._db.newversion(base)

        return self._db.run_transaction(step)

    def checkin(self, vref: VersionRef) -> None:
        """Promote transient -> working and make it the generic default.

        The status transition and the default-pointer update land in one
        retried transaction -- a deadlock victim re-runs both or neither.
        """

        def step() -> None:
            if self.status(vref) != TRANSIENT:
                raise CheckoutError(f"{vref!r} is not checked out")
            self._env.set_state(vref, WORKING)
            with self._control.modify() as control:
                control.defaults[vref.oid] = vref.vid

        self._db.run_transaction(step)

    def promote(self, vref: VersionRef) -> None:
        """Promote working -> released (public database; immutable forever)."""
        if self.status(vref) != WORKING:
            raise CheckoutError(f"{vref!r} is not working")
        self._env.set_state(vref, RELEASED)

    def set_default(self, vref: VersionRef) -> None:
        """Point the generic default at a specific (non-transient) version."""

        def step() -> None:
            if self.status(vref) == TRANSIENT:
                raise CheckoutError(
                    "the generic default cannot be a transient version"
                )
            with self._control.modify() as control:
                control.defaults[vref.oid] = vref.vid

        self._db.run_transaction(step)

    # -- reporting --------------------------------------------------------------

    def versions_by_tier(self, target: Ref | Oid) -> dict[str, list[VersionRef]]:
        """Versions of one object grouped by database tier."""
        oid = oid_of(target)
        tiers: dict[str, list[VersionRef]] = {"private": [], "project": [], "public": []}
        for vref in self._db.versions(self._db.deref(oid)):
            tiers[self.database_of(vref)].append(vref)
        return tiers
