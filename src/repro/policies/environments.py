"""Version environments (Klahold, Schlageter & Wilkes [24]) as a policy.

Paper §7: "A version management model based on the concept of version
environments has been proposed in [24].  A version environment offers
mechanisms for ordering versions by various relationships (time,
derived-from, etc.) and partitioning versions according to specific
properties (valid, invalid, in-progress, alternative, effective, ...)."

Like configurations and contexts, a version environment here is an
ordinary persistent object built only from the kernel's public surface --
the paper's primitives suffice for yet another published model:

* a configurable **state machine** over version states with an initial
  state and allowed transitions;
* **partitioning**: every version of an object is in exactly one state
  (unassigned versions sit in the initial state);
* **ordering** queries delegate to the kernel's temporal and derived-from
  relationships, restricted to a partition;
* the **effective version** of an object: the temporally latest version
  in a designated state -- which is precisely what a
  :class:`~repro.policies.configuration.Context` default generalizes.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PolicyError
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.persistent import persistent
from repro.core.pointers import Ref, VersionRef
from repro.core.surface import oid_of, plain_id

#: The default state set from the paper's quote.
DEFAULT_STATES = ("in-progress", "valid", "invalid", "effective")

#: Default transitions: a designer's review pipeline.
DEFAULT_TRANSITIONS = {
    "in-progress": ("valid", "invalid"),
    "valid": ("effective", "invalid"),
    "invalid": ("in-progress",),
    "effective": ("invalid",),
}


@persistent(name="ode.policies.VersionEnvironment")
class VersionEnvironment:
    """A named environment: version states, transitions, and assignments.

    State is plain codec data; environments persist, version, and recover
    like any object.
    """

    def __init__(
        self,
        name: str,
        states: tuple[str, ...] = DEFAULT_STATES,
        transitions: dict[str, tuple[str, ...]] | None = None,
        initial: str | None = None,
    ) -> None:
        if not states:
            raise PolicyError("an environment needs at least one state")
        self.name = name
        self.states = list(states)
        self.transitions = {
            k: list(v)
            for k, v in (transitions if transitions is not None else DEFAULT_TRANSITIONS).items()
            if k in states
        }
        self.initial = initial if initial is not None else states[0]
        if self.initial not in states:
            raise PolicyError(f"initial state {self.initial!r} not in states")
        self.assignments: dict[Vid, str] = {}

    # These run through the reference write-back proxy; Vid arguments
    # arrive unwrapped.

    def state_of(self, vid: Any) -> str:
        """The state a version is in (initial when never assigned)."""
        key = plain_id(vid)
        return self.assignments.get(key, self.initial)

    def set_state(self, vid: Any, state: str) -> None:
        """Move a version to ``state``, enforcing the transition relation."""
        key = plain_id(vid)
        if state not in self.states:
            raise PolicyError(f"unknown state {state!r} in environment {self.name!r}")
        current = self.assignments.get(key, self.initial)
        if state == current:
            return
        allowed = self.transitions.get(current, [])
        if state not in allowed:
            raise PolicyError(
                f"environment {self.name!r}: transition {current!r} -> {state!r} "
                f"not allowed (allowed: {sorted(allowed)})"
            )
        self.assignments[key] = state

    def drop(self, vid: Any) -> None:
        """Forget a version's assignment (e.g. after pdelete)."""
        key = plain_id(vid)
        self.assignments.pop(key, None)


def partition(db: Database, env: Ref, target: Ref | Oid) -> dict[str, list[VersionRef]]:
    """All live versions of ``target`` grouped by state, temporal order."""
    oid = oid_of(target)
    states: dict[str, list[VersionRef]] = {s: [] for s in env.states}
    for vref in db.versions(oid):
        states[env.state_of(vref.vid)].append(vref)
    return states


def versions_in_state(
    db: Database, env: Ref, target: Ref | Oid, state: str
) -> list[VersionRef]:
    """The versions of ``target`` currently in ``state`` (temporal order)."""
    return partition(db, env, target).get(state, [])


def effective_version(db: Database, env: Ref, target: Ref | Oid) -> VersionRef | None:
    """The temporally latest version in the ``effective`` state, if any."""
    effective = versions_in_state(db, env, target, "effective")
    return effective[-1] if effective else None


def latest_in_state(
    db: Database, env: Ref, target: Ref | Oid, state: str
) -> VersionRef | None:
    """The temporally latest version of ``target`` in ``state``."""
    matching = versions_in_state(db, env, target, state)
    return matching[-1] if matching else None


def alternatives_in_state(
    db: Database, env: Ref, target: Ref | Oid, state: str
) -> list[VersionRef]:
    """Derivation leaves of ``target`` restricted to ``state``.

    The [24] notion of the current alternatives of a design, filtered by
    review status -- ordering by derived-from composed with partitioning.
    """
    wanted = {v.vid for v in versions_in_state(db, env, target, state)}
    return [leaf for leaf in db.leaves(target) if leaf.vid in wanted]


def promote_pipeline(db: Database, env: Ref, vref: VersionRef, path: list[str]) -> None:
    """Walk a version through several transitions in order."""
    for state in path:
        env.set_state(vref, state)


def sweep_dead_assignments(db: Database, env: Ref) -> int:
    """Drop assignments whose versions no longer exist; returns the count.

    Environments reference versions by Vid; after ``pdelete`` those ids
    dangle.  This is the policy-level garbage collection the kernel does
    not (and should not) know about.
    """
    # Keys read through the proxy come back as bound VersionRefs; unwrap.
    keys = [
        plain_id(key)
        for key in env.assignments
    ]
    dead = [vid for vid in keys if not db.version_exists(vid)]
    if dead:
        with env.modify() as e:
            for vid in dead:
                e.assignments.pop(vid, None)
    return len(dead)
