"""Configurations and contexts as *policies* over the kernel primitives.

Paper §5 models each chip representation as a **configuration** -- "a
composition of specific versions of component objects of a complex object"
(Katz et al. [21]) -- and shows that O++ needs no new construct for it: a
configuration is just an ordinary object whose fields hold object ids
(dynamic binding) or version ids (static binding).  **Contexts** [5, 8, 13,
16, 21] name default versions: "contexts may also be created to specify
default versions" (paper §5).

This module implements both as ordinary persistent objects, which is
itself the demonstration: configurations are versionable, queryable, and
transactional *for free* because they are nothing special.

* :class:`Configuration` -- named component bindings.  A *dynamic* binding
  stores an :class:`~repro.core.identity.Oid` and always resolves to the
  component's latest version; a *static* binding stores a
  :class:`~repro.core.identity.Vid` and is pinned forever.
* :func:`freeze` -- create a *new version* of a configuration in which all
  dynamic bindings are pinned to the components' current latest versions
  (a release).  The pre-freeze configuration survives as the derivation
  parent, so release history is a version history.
* :class:`Context` -- a mapping from objects to their default versions;
  :func:`resolve_in_context` dereferences an object id through a context
  before falling back to latest.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef
from repro.core.surface import oid_of, plain_id
from repro.core.persistent import persistent

#: Binding kinds (stored alongside each binding for introspection).
DYNAMIC = "dynamic"
STATIC = "static"


@persistent(name="ode.policies.Configuration")
class Configuration:
    """A named composition of component bindings.

    State is plain codec data (a dict of component name -> Oid or Vid), so
    a Configuration is an ordinary persistent object: create it with
    ``db.pnew(Configuration("timing"))`` and manipulate it through the
    returned reference.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.bindings: dict[str, Any] = {}

    # The methods below run through the reference write-back proxy, so
    # Ref/VersionRef arguments arrive already unwrapped to Oid/Vid.

    def bind_dynamic(self, component: str, target: Any) -> None:
        """Bind ``component`` generically: it will resolve to the latest version."""
        if isinstance(target, Vid):
            target = target.oid
        if not isinstance(target, Oid):
            raise ConfigurationError(
                f"dynamic binding needs an object reference, got {type(target).__qualname__}"
            )
        self.bindings[component] = target

    def bind_static(self, component: str, target: Any) -> None:
        """Bind ``component`` specifically: pinned to one version forever."""
        if not isinstance(target, Vid):
            raise ConfigurationError(
                f"static binding needs a version reference, got {type(target).__qualname__}"
            )
        self.bindings[component] = target

    def unbind(self, component: str) -> None:
        """Remove a binding."""
        if component not in self.bindings:
            raise ConfigurationError(f"no binding for component {component!r}")
        del self.bindings[component]

    def binding_kind(self, component: str) -> str:
        """``"dynamic"`` or ``"static"`` for the named component."""
        target = self.binding(component)
        return STATIC if isinstance(target, Vid) else DYNAMIC

    def binding(self, component: str) -> Any:
        """The raw Oid/Vid bound to ``component``."""
        try:
            return self.bindings[component]
        except KeyError:
            raise ConfigurationError(f"no binding for component {component!r}") from None

    def components(self) -> list[str]:
        """Bound component names, sorted."""
        return sorted(self.bindings)


def resolve(db: Database, config: Ref | VersionRef, component: str) -> VersionRef:
    """Resolve one component binding to a specific version reference.

    Dynamic bindings resolve to the component's **latest** version at call
    time (paper §3's late binding); static bindings resolve to their pinned
    version.
    """
    target = config.binding(component)
    # Read through a reference proxy, bound ids come back re-wrapped.
    ident: Any = plain_id(target)
    if isinstance(ident, Oid):
        return db.deref(db.latest_vid(ident))
    if isinstance(ident, Vid):
        return db.deref(ident)
    raise ConfigurationError(
        f"binding for {component!r} is not a reference: {ident!r}"
    )


def materialize(db: Database, config: Ref | VersionRef) -> dict[str, Any]:
    """Materialize every component of a configuration: name -> object copy."""
    return {
        component: resolve(db, config, component).deref()
        for component in config.components()
    }


def freeze(db: Database, config: Ref) -> VersionRef:
    """Release a configuration: a pinned version, with development continuing.

    Two versions are created from the configuration's current latest
    version ``v``:

    * the **release** -- derived from ``v``, with every dynamic binding
      converted to a static binding to the component's current latest
      version (immutable composition, the paper's §5 released
      representation).  Each dynamically-bound component is also rolled
      forward with ``newversion`` so that future edits -- including
      in-place mutation -- land on the component's *new* latest version
      and can never disturb the pinned one;
    * a new **development head** -- a variant also derived from ``v``,
      keeping the dynamic bindings.  Being created last it is the
      temporally latest version, so generic references to the
      configuration keep seeing live (late-bound) components.

    Returns the release's specific reference; the release stays reachable
    forever through it and through the derivation tree.
    """
    base = db.latest_vid(config.oid)
    release = db.newversion(base)
    with release.modify() as cfg:
        for component, target in list(cfg.bindings.items()):
            if isinstance(target, Oid):
                pinned = db.latest_vid(target)
                cfg.bindings[component] = pinned
                # Roll the component forward: development continues on a
                # fresh version, leaving the pinned one immutable.
                db.newversion(pinned)
    db.newversion(base)  # the new development head (dynamic bindings intact)
    return release


@persistent(name="ode.policies.Context")
class Context:
    """Default versions for a set of objects (paper §5's contexts).

    A context maps object ids to the version id that should be used when
    dereferencing within the context -- e.g. "the last validated version"
    -- while objects outside the context fall back to latest.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.defaults: dict[Oid, Vid] = {}

    def set_default(self, target: Any) -> None:
        """Make ``target`` (a Vid) its object's default version here."""
        if not isinstance(target, Vid):
            raise ConfigurationError(
                f"context defaults are specific versions, got {type(target).__qualname__}"
            )
        self.defaults[target.oid] = target

    def clear_default(self, target: Any) -> None:
        """Drop the default for an object (falls back to latest)."""
        oid = target.oid if isinstance(target, Vid) else target
        self.defaults.pop(oid, None)

    def default_for(self, oid: Oid) -> Vid | None:
        """The default version for ``oid`` in this context, if any."""
        return self.defaults.get(oid)


def resolve_in_context(
    db: Database, context: Ref | VersionRef, target: Ref | Oid
) -> VersionRef:
    """Dereference ``target`` through a context's defaults.

    Returns the context's default version when one is set, the latest
    version otherwise.
    """
    oid = oid_of(target)
    default = context.default_for(oid)
    vid = plain_id(default)
    if vid is not None:
        return db.deref(vid)
    return db.deref(db.latest_vid(oid))
