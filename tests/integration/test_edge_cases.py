"""Edge cases across modules that the focused unit files do not reach."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, StoragePolicy, persistent
from repro.core.identity import Oid, Vid
from repro.core.pointers import unwrap_ids, wrap_ids
from repro.errors import GraphInvariantError, SerializationError
from repro.storage import serialization
from tests.conftest import Doc, Node, Part


# -- serialization: nesting & registered-in-registered -------------------------


@persistent(name="edge.Inner")
class Inner:
    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, Inner) and other.v == self.v


@persistent(name="edge.Outer")
class Outer:
    def __init__(self, inner, extras):
        self.inner = inner
        self.extras = extras

    def __eq__(self, other):
        return (
            isinstance(other, Outer)
            and other.inner == self.inner
            and other.extras == self.extras
        )


def test_registered_object_nested_in_registered_object():
    value = Outer(Inner(1), [Inner(2), {"k": Inner(3)}])
    assert serialization.decode(serialization.encode(value)) == value


def test_bool_and_none_dict_keys():
    value = {True: "t", False: "f", None: "n", 1.5: "float"}
    assert serialization.decode(serialization.encode(value)) == value


def test_deeply_nested_structure():
    value = [1]
    for _ in range(60):
        value = [value]
    assert serialization.decode(serialization.encode(value)) == value


def test_mixed_key_set_encoding_is_order_independent():
    assert serialization.encode({(1, 2), (3, 4)}) == serialization.encode(
        {(3, 4), (1, 2)}
    )


# -- pointers: wrap/unwrap inverse property -------------------------------------


ids_strategy = st.recursive(
    st.one_of(
        st.integers(),
        st.text(max_size=8),
        st.builds(Oid, st.integers(1, 10**6)),
        st.builds(lambda o, s: Vid(Oid(o), s), st.integers(1, 10**6), st.integers(1, 100)),
    ),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100)
@given(ids_strategy)
def test_property_unwrap_wrap_inverse(value):
    class FakeStore:
        pass

    store = FakeStore()
    assert unwrap_ids(wrap_ids(store, value)) == value


# -- store: behaviours around deletion ------------------------------------------


def test_newversion_of_deleted_object_raises(db):
    ref = db.pnew(Part("gone", 1))
    db.pdelete(ref)
    with pytest.raises(Exception):
        db.newversion(ref)


def test_serials_not_reused_after_version_delete(db):
    ref = db.pnew(Part("p", 1))
    v2 = db.newversion(ref)
    db.pdelete(v2)
    v3 = db.newversion(ref)
    assert v3.vid.serial == 3  # serial 2 never returns


def test_variant_of_middle_after_deleting_latest(db):
    ref = db.pnew(Part("p", 1))
    v2 = db.newversion(ref)
    v3 = db.newversion(ref)
    db.pdelete(v3)
    v4 = db.newversion(v2)
    assert db.latest_vid(ref.oid) == v4.vid
    db.graph(ref).validate()


def test_write_version_empty_state_object(db):
    class Empty:
        pass

    ref = db.pnew(Empty())
    v2 = db.newversion(ref)
    assert isinstance(v2.deref(), Empty)


# -- database: policy mismatch across reopen -------------------------------------


def test_delta_database_reopens_under_full_policy(tmp_path):
    """Storage kind is recorded per version record, so mixed files work."""
    path = tmp_path / "mixed"
    with Database(path, policy=StoragePolicy(kind="delta", keyframe_interval=4)) as db:
        ref = db.pnew(Doc("seed " * 200))
        for i in range(6):
            v = db.newversion(ref)
            v.text = v.text + f" rev{i}"
        oid = ref.oid
    with Database(path, policy=StoragePolicy(kind="full")) as db:
        ref = db.deref(oid)
        assert ref.text.endswith("rev5")  # old delta chains still read
        v = db.newversion(ref)  # new versions stored full
        v.text = "fresh"
        assert ref.text == "fresh"
    with Database(path, policy=StoragePolicy(kind="delta", keyframe_interval=4)) as db:
        assert db.deref(oid).text == "fresh"


# -- vgraph: malformed persisted state ---------------------------------------------


def test_build_rejects_cycles():
    from repro.core.vgraph import VersionGraph

    rows = [(1, 2, 0.0, None), (2, 1, 1.0, None)]  # 1 <- 2 <- 1
    with pytest.raises(GraphInvariantError):
        VersionGraph.build(rows, 2)


def test_build_rejects_dangling_parent():
    from repro.core.vgraph import VersionGraph

    with pytest.raises(GraphInvariantError):
        VersionGraph.build([(2, 7, 0.0, None)], 2)


# -- render: degenerate graphs -----------------------------------------------------


def test_render_single_version(db):
    from repro.tools.render import ascii_tree, to_dot

    ref = db.pnew(Part("solo", 1))
    assert ascii_tree(db.graph(ref)) == "v1 [t0] *latest*"
    dot = to_dot(db.graph(ref))
    assert "v1" in dot and "->" not in dot.replace("rankdir", "")


# -- refs in odd places --------------------------------------------------------------


def test_self_reference(db):
    node = db.pnew(Node("selfish"))
    node.next_ref = node  # object referencing itself
    assert node.next_ref.label == "selfish"
    assert node.next_ref.next_ref.oid == node.oid


def test_reference_to_specific_version_of_self(db):
    node = db.pnew(Node("v1-label"))
    pin = node.pin()
    node.next_ref = pin
    v2 = db.newversion(node)
    v2.label = "v2-label"
    # Latest version still pins the ORIGINAL version of itself.
    assert node.next_ref.label == "v1-label"


def test_long_generic_chain(db):
    refs = [db.pnew(Node(f"n{i}")) for i in range(20)]
    for a, b in zip(refs, refs[1:]):
        a.next_ref = b
    cursor = refs[0]
    for _ in range(19):
        cursor = cursor.next_ref
    assert cursor.label == "n19"


# -- serialization failure does not corrupt the store --------------------------------


def test_failed_write_leaves_version_intact(db):
    ref = db.pnew(Part("stable", 1))

    class Unserializable:
        pass

    with pytest.raises(SerializationError):
        # A class instance nested in state, never registered AND with a
        # registered-name collision path dodged: direct codec failure.
        ref.weight = {1: Unserializable(), 2: lambda: None}[2]
    assert ref.weight == 1  # the old state survived the failed write
