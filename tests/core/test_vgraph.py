"""Unit and property tests for the version graph kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vgraph import VersionGraph
from repro.errors import GraphInvariantError, UnknownVersionError


def build_paper_graph() -> VersionGraph:
    """The paper's running example of §4.

    v0 (serial 1) -- first version
    v1 (serial 2) derived from v0   (a revision)
    v2 (serial 3) derived from v0   (a variant of v1)
    v3 (serial 4) derived from v1
    """
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    graph.create(2, 1, 1.0)
    graph.create(3, 1, 2.0)
    graph.create(4, 2, 3.0)
    return graph


def test_empty_graph():
    graph = VersionGraph()
    assert len(graph) == 0
    assert graph.latest() is None
    assert graph.serials() == []


def test_create_root():
    graph = VersionGraph()
    graph.create(1, None, 0.0, data="payload")
    assert len(graph) == 1
    assert graph.latest() == 1
    assert graph.node(1).data == "payload"
    assert graph.roots() == [1]


def test_latest_is_temporal_max():
    graph = build_paper_graph()
    assert graph.latest() == 4


def test_temporal_chain_order():
    graph = build_paper_graph()
    assert graph.serials() == [1, 2, 3, 4]


def test_dprevious_traversal():
    graph = build_paper_graph()
    assert graph.dprevious(4) == 2
    assert graph.dprevious(3) == 1
    assert graph.dprevious(2) == 1
    assert graph.dprevious(1) is None


def test_tprevious_traversal():
    graph = build_paper_graph()
    assert graph.tprevious(4) == 3
    assert graph.tprevious(3) == 2
    assert graph.tprevious(1) is None


def test_tnext_traversal():
    graph = build_paper_graph()
    assert graph.tnext(1) == 2
    assert graph.tnext(4) is None


def test_dnext_lists_children():
    graph = build_paper_graph()
    assert graph.dnext(1) == [2, 3]
    assert graph.dnext(2) == [4]
    assert graph.dnext(4) == []


def test_history_is_derivation_path():
    """Paper §4: 'v3, v1, and v0 constitute a version history'."""
    graph = build_paper_graph()
    assert graph.history(4) == [4, 2, 1]
    assert graph.history(3) == [3, 1]
    assert graph.history(1) == [1]


def test_leaves_are_up_to_date_alternatives():
    graph = build_paper_graph()
    assert graph.leaves() == [3, 4]


def test_alternatives_are_root_to_leaf_paths():
    graph = build_paper_graph()
    assert graph.alternatives() == [[1, 2, 4], [1, 3]]


def test_descendants():
    graph = build_paper_graph()
    assert graph.descendants(1) == [2, 3, 4]
    assert graph.descendants(2) == [4]
    assert graph.descendants(4) == []


def test_derivation_depth():
    graph = build_paper_graph()
    assert len(graph.history(1)) - 1 == 0
    assert len(graph.history(4)) - 1 == 2


def test_remove_leaf_splices_temporal_chain():
    graph = build_paper_graph()
    graph.remove(3)
    assert graph.serials() == [1, 2, 4]
    assert graph.tprevious(4) == 2
    graph.validate()


def test_remove_latest_promotes_previous():
    """Paper §4.4: deleting the latest makes the previous version latest."""
    graph = build_paper_graph()
    graph.remove(4)
    assert graph.latest() == 3
    graph.validate()


def test_remove_interior_reparents_children():
    graph = build_paper_graph()
    graph.remove(2)  # v1: child v3(serial 4) re-parents to v0(serial 1)
    assert graph.dprevious(4) == 1
    assert sorted(graph.dnext(1)) == [3, 4]
    graph.validate()


def test_remove_root_promotes_children_to_roots():
    graph = build_paper_graph()
    graph.remove(1)
    assert graph.roots() == [2, 3]
    assert graph.dprevious(2) is None
    graph.validate()


def test_remove_unknown_raises():
    graph = build_paper_graph()
    with pytest.raises(UnknownVersionError):
        graph.remove(99)


def test_serials_never_recycle():
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    graph.create(2, 1, 1.0)
    graph.remove(2)
    with pytest.raises(GraphInvariantError):
        graph.create(2, 1, 2.0)  # reuse of a dead serial is forbidden
    graph.create(3, 1, 2.0)  # fresh serial is fine
    assert graph.latest() == 3


def test_create_duplicate_serial_rejected():
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    with pytest.raises(GraphInvariantError):
        graph.create(1, None, 1.0)


def test_create_from_dead_parent_rejected():
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    with pytest.raises(UnknownVersionError):
        graph.create(2, 42, 1.0)


def test_traversal_of_unknown_serial_raises():
    graph = build_paper_graph()
    with pytest.raises(UnknownVersionError):
        graph.dprevious(99)
    with pytest.raises(UnknownVersionError):
        graph.tprevious(99)


def _rows(graph):
    return [(n.serial, n.dprev, n.ctime, n.data) for n in graph.walk_temporal()]


def test_build_roundtrip():
    graph = build_paper_graph()
    graph.node(2).data = ("F", 3, 1)
    restored = VersionGraph.build(reversed(_rows(graph)), graph.max_serial)
    assert restored.serials() == graph.serials()
    assert restored.latest() == graph.latest()
    assert restored.node(2).data == ("F", 3, 1)
    assert restored.dnext(1) == graph.dnext(1)
    assert restored.max_serial == graph.max_serial


def test_build_keeps_the_high_water_mark():
    graph = build_paper_graph()
    graph.remove(4)
    restored = VersionGraph.build(_rows(graph), 4)
    assert restored.max_serial == 4
    with pytest.raises(GraphInvariantError):
        restored.create(4, None, 9.9)


def test_walk_temporal_yields_nodes_in_order():
    graph = build_paper_graph()
    assert [n.serial for n in graph.walk_temporal()] == [1, 2, 3, 4]


def test_contains():
    graph = build_paper_graph()
    assert 1 in graph
    assert 99 not in graph


# -- property tests -------------------------------------------------------------


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.sampled_from(["derive", "variant", "remove"]), st.integers(0, 10**6)),
        max_size=60,
    )
)
def test_property_random_ops_keep_invariants(ops):
    """Any op sequence leaves the graph valid and serials temporal."""
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    next_serial = 2
    for op, pick in ops:
        serials = graph.serials()
        if op == "derive" and serials:
            graph.create(next_serial, graph.latest(), float(next_serial))
            next_serial += 1
        elif op == "variant" and serials:
            base = serials[pick % len(serials)]
            graph.create(next_serial, base, float(next_serial))
            next_serial += 1
        elif op == "remove" and len(serials) > 1:
            graph.remove(serials[pick % len(serials)])
        graph.validate()
        assert graph.serials() == sorted(graph.serials())
        if graph.serials():
            assert graph.latest() == max(graph.serials())


@settings(max_examples=50)
@given(st.integers(2, 40), st.data())
def test_property_alternatives_partition_leaves(n, data):
    """Every leaf appears in exactly one alternative path."""
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    for serial in range(2, n + 1):
        base = data.draw(st.sampled_from(graph.serials()))
        graph.create(serial, base, float(serial))
    paths = graph.alternatives()
    leaves = sorted(path[-1] for path in paths)
    assert leaves == graph.leaves()
    for path in paths:
        assert graph.dprevious(path[0]) is None
        for parent, child in zip(path, path[1:]):
            assert graph.dprevious(child) == parent


@settings(max_examples=50)
@given(st.integers(2, 40), st.data())
def test_property_history_reaches_root(n, data):
    graph = VersionGraph()
    graph.create(1, None, 0.0)
    for serial in range(2, n + 1):
        base = data.draw(st.sampled_from(graph.serials()))
        graph.create(serial, base, float(serial))
    for serial in graph.serials():
        history = graph.history(serial)
        assert history[0] == serial
        assert graph.dprevious(history[-1]) is None
        assert history == sorted(history, reverse=True)  # always newest-first
