"""The paper's worked examples as executable, checked scenarios.

These are the qualitative "figures" of the paper (experiments E1/E2 in
DESIGN.md): the §4 running example's derivation diagrams, the deletion
semantics of §4.4, and §3's reference-binding examples.  Each test builds
the exact object state the paper describes and asserts the exact graph the
paper draws.
"""

from __future__ import annotations

import pytest

from repro import persistent
from tests.conftest import Part, open_engine


@persistent(name="paper.Object")
class PaperObject:
    """The anonymous object of the paper's §4 running example."""

    def __init__(self, state: str) -> None:
        self.state = state


@persistent(name="paper.Person2")
class Person:
    def __init__(self, name, address):
        self.name = name
        self.address = address


@persistent(name="paper.AddressBook2")
class AddressBook:
    def __init__(self):
        self.people = []


def test_figure_v0_v1_revision(db):
    """§4: 'newversion(p)' -- v1 derived from v0; p now denotes v1."""
    p = db.pnew(PaperObject("v0"))
    v0 = p.pin()
    v1 = db.newversion(p)
    v1.state = "v1"
    # Temporal relationship: v0 then v1.
    assert [v.state for v in db.versions(p)] == ["v0", "v1"]
    # Derived-from: v1 <- v0; "v1 can be thought of as a revision of v0".
    assert db.dprevious(v1) == v0
    # The object id refers to the latest version.
    assert p.state == "v1"


def test_figure_v1_v2_variants(db):
    """§4: deriving v2 from v0 -- 'v1 and v2 ... variants or alternatives'."""
    p = db.pnew(PaperObject("v0"))
    v0 = p.pin()
    v1 = db.newversion(p)
    v1.state = "v1"
    v2 = db.newversion(v0)  # newversion with v0's version id
    v2.state = "v2"
    assert db.dprevious(v1) == v0
    assert db.dprevious(v2) == v0
    assert {r.vid for r in db.dnext(v0)} == {v1.vid, v2.vid}
    # Both are leaves: two alternative designs.
    assert {r.vid for r in db.leaves(p)} == {v1.vid, v2.vid}
    # v2 is temporally latest, so p denotes it.
    assert p.state == "v2"


def test_figure_v3_version_history(db):
    """§4: 'newversion(vp1)' where vp1 holds v1's id; 'v3, v1, and v0
    constitute a version history'."""
    p = db.pnew(PaperObject("v0"))
    v0 = p.pin()
    v1 = db.newversion(p)
    v1.state = "v1"
    v2 = db.newversion(v0)
    v2.state = "v2"
    vp1 = v1  # the paper's vp1 contains the id of version v1
    v3 = db.newversion(vp1)
    v3.state = "v3"
    history = db.history(v3)
    assert [h.state for h in history] == ["v3", "v1", "v0"]
    # Full tree shape: v0 -> {v1 -> v3, v2}.
    graph = db.graph(p)
    assert graph.alternatives() == [
        [v0.vid.serial, v1.vid.serial, v3.vid.serial],
        [v0.vid.serial, v2.vid.serial],
    ]


def test_figure_traversal_operators(db):
    """§4: Dprevious vs Tprevious distinguish derivation from time."""
    p = db.pnew(PaperObject("v0"))
    v0 = p.pin()
    v1 = db.newversion(p)
    v2 = db.newversion(v0)
    v3 = db.newversion(v1)
    # Dprevious follows derivation; Tprevious follows creation time.
    assert db.dprevious(v3) == v1
    assert db.tprevious(v3) == v2
    assert db.dprevious(v2) == v0
    assert db.tprevious(v2) == v1
    assert db.tnext(v1) == v2
    assert db.dnext(v1) == [v3]


def test_deletion_of_specified_version(db):
    """§4.4: 'Given a version id, pdelete deletes the specified version.'"""
    p = db.pnew(PaperObject("v0"))
    v0 = p.pin()
    v1 = db.newversion(p)
    v3 = db.newversion(v1)
    v3.state = "v3"
    db.pdelete(v1)
    # v3 is re-parented to v0; its contents are untouched.
    assert db.dprevious(v3) == v0
    assert v3.state == "v3"
    assert db.version_count(p) == 2


def test_deletion_of_object_deletes_all_versions(db):
    """§4.4: 'Given an object id, pdelete deletes the object and all its
    versions.'"""
    p = db.pnew(PaperObject("v0"))
    versions = [p.pin(), db.newversion(p), db.newversion(p)]
    db.pdelete(p)
    assert not p.is_alive()
    for v in versions:
        assert not v.is_alive()


def test_generic_reference_address_book(db):
    """§3: the address-book example -- generic references read the latest
    addresses of person objects."""
    ann = db.pnew(Person("ann", "1 Old Lane"))
    book = db.pnew(AddressBook())
    book.people = [ann]  # stored as a generic reference
    moved = db.newversion(ann)
    moved.address = "9 New Road"
    # The book reads the LATEST address without any update to the book.
    assert book.people[0].address == "9 New Road"


def test_specific_reference_stays_pinned(db):
    """§3: specific references give static binding."""
    part = db.pnew(Part("cpu", 1))
    released_with = part.pin()
    v2 = db.newversion(part)
    v2.weight = 2
    assert released_with.weight == 1
    assert part.weight == 2


def test_version_ids_are_stable_across_restarts(engine_kind, tmp_path):
    """§2: persistent objects 'automatically persist across program
    invocations' -- and so do version identities."""
    path = tmp_path / "stable"
    with open_engine(engine_kind, path) as db:
        p = db.pnew(PaperObject("v0"))
        v1 = db.newversion(p)
        v1.state = "v1"
        ids = (p.oid, v1.vid)
    with open_engine(engine_kind, path) as db:
        p = db.deref(ids[0])
        v1 = db.deref(ids[1])
        assert p.state == "v1"
        assert v1.state == "v1"
        assert db.latest_vid(p.oid) == ids[1]


def test_no_type_change_needed_for_versioning(db):
    """§4: 'when creating a version, no changes were required in the type
    definition of this object' -- version orthogonality in action."""

    class NeverDeclaredAnything:
        def __init__(self):
            self.value = 0

    ref = db.pnew(NeverDeclaredAnything())
    v2 = db.newversion(ref)  # no declaration, no transformation
    v2.value = 1
    assert ref.value == 1
    assert db.versions(ref)[0].value == 0


def test_small_changes_small_impact(db):
    """§3: creating a version of one object creates versions of nothing else."""
    parts = [db.pnew(Part(f"p{i}", i)) for i in range(10)]
    holder = db.pnew(Part("holder", 0))
    holder.name = [p.oid for p in parts]  # references to all of them
    db.newversion(parts[0])
    for other in parts[1:]:
        assert db.version_count(other) == 1
    assert db.version_count(holder) == 1
