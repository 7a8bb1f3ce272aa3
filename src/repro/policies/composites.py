"""Composite objects with owned components, as a policy (paper §2).

Paper §2: "we consciously decided not to introduce new pointer types (such
as own ref in [12]) to model composite objects [23] with 'local objects'
which are deleted when the composite object is deleted because this can be
simulated using C++ destructors."

The Python analogue of "simulate it with destructors" is this policy: an
ownership registry plus a ``delete_object`` trigger.  Declaring
``own(parent, component)`` makes the component a *local object* of the
parent; deleting the parent cascades ``pdelete`` to every owned component,
transitively -- exactly the ORION composite-object semantics [23], rebuilt
from the kernel's public surface (one persistent registry object + one
trigger), with none of it in the kernel.

Shared ownership is rejected (a local object has exactly one owner, as in
[23]); cycles are therefore impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.errors import PolicyError
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.persistent import persistent
from repro.core.pointers import Ref
from repro.core.surface import oid_of


@persistent(name="ode.policies.OwnershipRegistry")
class OwnershipRegistry:
    """Durable ownership links: component oid -> owner oid."""

    def __init__(self) -> None:
        self.owner_of: dict[Oid, Oid] = {}


@dataclass
class CascadeReport:
    """What one cascade did."""

    root: Oid
    deleted: list[Oid] = field(default_factory=list)


class CompositeManager:
    """Ownership declaration + cascading deletion for one database.

    Construct once per database (it registers a ``delete_object``
    trigger).  The registry is an ordinary persistent object, so
    ownership links survive restarts; reconstruct the manager after
    reopening with ``CompositeManager(db, registry_oid=...)``.
    """

    def __init__(self, db: Database, registry_oid: Oid | None = None) -> None:
        self._db = db
        if registry_oid is None:
            self._registry: Ref = db.pnew(OwnershipRegistry())
        else:
            self._registry = db.deref(registry_oid)
        self.last_cascade: CascadeReport | None = None
        self._cascading = False
        db.triggers.register(self._on_delete, events="delete_object")

    @property
    def registry_oid(self) -> Oid:
        """Persist this to reconstruct the manager after reopen."""
        return self._registry.oid

    # -- declaration ---------------------------------------------------------

    def own(self, parent: Ref | Oid, component: Ref | Oid) -> None:
        """Declare ``component`` a local object of ``parent``.

        A component has at most one owner; re-owning raises.  Ownership of
        an ancestor by a descendant would require the descendant to be
        owned already, so cycles cannot be declared.
        """
        parent_oid = oid_of(parent)
        component_oid = oid_of(component)
        if parent_oid == component_oid:
            raise PolicyError("an object cannot own itself")
        owners = self._owners()
        if component_oid in owners:
            raise PolicyError(
                f"{component_oid!r} already has owner {owners[component_oid]!r}"
            )
        # Reject ownership that would close a cycle through existing links.
        cursor: Oid | None = parent_oid
        while cursor is not None:
            if cursor == component_oid:
                raise PolicyError("ownership cycle rejected")
            cursor = owners.get(cursor)
        with self._registry.modify() as registry:
            registry.owner_of[component_oid] = parent_oid

    def disown(self, component: Ref | Oid) -> None:
        """Remove a component's ownership link (it becomes independent)."""
        component_oid = oid_of(component)
        with self._registry.modify() as registry:
            registry.owner_of.pop(component_oid, None)

    def owner(self, component: Ref | Oid) -> Oid | None:
        """The owner of ``component``, if any."""
        component_oid = oid_of(component)
        return self._owners().get(component_oid)

    def components_of(self, parent: Ref | Oid) -> list[Oid]:
        """Directly owned components of ``parent``, sorted."""
        parent_oid = oid_of(parent)
        return sorted(
            comp for comp, owner in self._owners().items() if owner == parent_oid
        )

    def _owners(self) -> dict[Oid, Oid]:
        # deref() gives raw ids (no proxy re-binding of dict keys).
        return dict(self._registry.deref().owner_of)

    # -- the destructor ------------------------------------------------------

    def _on_delete(self, event: str, oid: Oid, vid: Vid | None) -> None:
        if self._cascading:
            # Nested deletions are part of the ongoing cascade.
            self._collect(oid)
            return
        owners = self._owners()
        victims = [comp for comp, owner in owners.items() if owner == oid]
        if not victims and oid not in owners:
            return
        self.last_cascade = CascadeReport(root=oid)
        self._cascading = True
        try:
            for component in victims:
                if self._db.object_exists(component):
                    self._db.pdelete(self._db.deref(component))
            with self._registry.modify() as registry:
                registry.owner_of.pop(oid, None)
                for component in list(registry.owner_of):
                    if not self._db.object_exists(component):
                        registry.owner_of.pop(component, None)
        finally:
            self._cascading = False

    def _collect(self, oid: Oid) -> None:
        if self.last_cascade is not None:
            self.last_cascade.deleted.append(oid)
        # Cascade transitively: deleting a component deletes ITS components.
        for component in self.components_of(oid):
            if self._db.object_exists(component):
                self._db.pdelete(self._db.deref(component))
