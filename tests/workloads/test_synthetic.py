"""Unit tests for the synthetic generators."""

from __future__ import annotations

import pytest

from repro.workloads.synthetic import (
    make_chain,
    make_random_tree,
    make_star,
    mutate_payload,
    random_payload,
)


def test_random_payload_deterministic():
    assert random_payload(128, seed=1) == random_payload(128, seed=1)
    assert random_payload(128, seed=1) != random_payload(128, seed=2)
    assert len(random_payload(777, seed=0)) == 777


def test_mutate_payload_respects_ratio():
    base = random_payload(10_000, seed=1)
    light = mutate_payload(base, 0.01, seed=2)
    heavy = mutate_payload(base, 0.5, seed=2)
    diff_light = sum(a != b for a, b in zip(base, light))
    diff_heavy = sum(a != b for a, b in zip(base, heavy))
    assert 0 < diff_light < diff_heavy
    assert len(light) == len(base)


def test_mutate_payload_zero_ratio_still_valid():
    base = random_payload(100, seed=1)
    out = mutate_payload(base, 0.0, seed=3)
    assert len(out) == len(base)


def test_mutate_payload_ratio_validation():
    with pytest.raises(ValueError):
        mutate_payload(b"abc", 1.5)


def test_make_chain_shape(db):
    versions = make_chain(db, length=10, payload_size=128)
    assert len(versions) == 10
    graph = db.graph(versions[0].oid)
    graph.validate()
    # Pure chain: one leaf, every node <=1 child.
    assert len(graph.leaves()) == 1
    assert len(graph.history(versions[-1].vid.serial)) - 1 == 9


def test_make_chain_contents_differ(db):
    versions = make_chain(db, length=5, payload_size=256)
    payloads = [v.data for v in versions]
    assert len(set(payloads)) == 5


def test_make_star_shape(db):
    base, variants = make_star(db, variants=6)
    graph = db.graph(base.oid)
    graph.validate()
    assert graph.dnext(base.vid.serial) == [v.vid.serial for v in variants]
    assert len(graph.leaves()) == 6


def test_make_random_tree_deterministic(db, tmp_path):
    from repro import Database

    _, versions1 = make_random_tree(db, 25, seed=9)
    shape1 = [(n.serial, n.dprev) for n in db.graph(versions1[0].oid).walk_temporal()]

    other = Database(tmp_path / "other")
    _, versions2 = make_random_tree(other, 25, seed=9)
    shape2 = [(n.serial, n.dprev) for n in other.graph(versions2[0].oid).walk_temporal()]
    # Same derivation structure (ignore wall-clock ctimes and payload rids).
    assert shape1 == shape2
    other.close()


def test_make_random_tree_branchiness_extremes(db):
    ref_chain, _ = make_random_tree(db, 15, branchiness=0.0, seed=1)
    assert len(db.graph(ref_chain.oid).leaves()) == 1
    ref_bushy, _ = make_random_tree(db, 15, branchiness=1.0, seed=1)
    assert len(db.graph(ref_bushy.oid).leaves()) > 1


def test_make_random_tree_validates(db):
    ref, versions = make_random_tree(db, 30, seed=4)
    db.graph(ref.oid).validate()
    assert len(versions) == 30


def test_make_random_tree_needs_one_version(db):
    with pytest.raises(ValueError):
        make_random_tree(db, 0)
