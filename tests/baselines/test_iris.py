"""Unit tests for the IRIS baseline model."""

from __future__ import annotations

import pytest

from repro.baselines.iris import IrisStore
from repro.errors import BaselineError


@pytest.fixture
def store():
    return IrisStore()


def test_objects_start_unversioned(store):
    oid = store.create({"v": 1})
    assert not store._object(oid).versioned
    assert store.deref_generic(oid) == {"v": 1}


def test_versioning_requires_transformation(store):
    oid = store.create({"v": 1})
    with pytest.raises(BaselineError):
        store.new_version(oid)


def test_transformation_enables_versioning(store):
    oid = store.create({"v": 1})
    store.transform_to_versioned(oid)
    assert store._object(oid).versioned
    number = store.new_version(oid)
    assert number == 2
    assert store.versions_of(oid) == [1, 2]


def test_transformation_preserves_state(store):
    oid = store.create({"payload": list(range(50))})
    store.transform_to_versioned(oid)
    assert store.deref_generic(oid) == {"payload": list(range(50))}
    assert store.deref_specific(oid, 1) == {"payload": list(range(50))}


def test_double_transformation_rejected(store):
    oid = store.create({"v": 1})
    store.transform_to_versioned(oid)
    with pytest.raises(BaselineError):
        store.transform_to_versioned(oid)


def test_transformation_cost_scales_with_size(store):
    small = store.create({"p": "x" * 10})
    store.transform_to_versioned(small)
    small_cost = store.transform_bytes
    big = store.create({"p": "x" * 10000})
    store.transform_to_versioned(big)
    assert store.transform_bytes - small_cost > small_cost


def test_reference_rewrite_counted(store):
    target = store.create({"v": 1})
    for _ in range(5):
        store.create({"ref": target}, references=[target])
    store.transform_to_versioned(target)
    assert store.references_rewritten == 5


def test_new_version_copies_default(store):
    oid = store.create({"v": 1})
    store.transform_to_versioned(oid)
    store.update(oid, {"v": 2})
    store.new_version(oid)
    assert store.deref_generic(oid) == {"v": 2}
    assert store.deref_specific(oid, 1) == {"v": 2}  # v1 was the default we updated


def test_update_unversioned(store):
    oid = store.create({"v": 1})
    store.update(oid, {"v": 9})
    assert store.deref_generic(oid) == {"v": 9}


def test_update_specific_version(store):
    oid = store.create({"v": 1})
    store.transform_to_versioned(oid)
    store.new_version(oid)
    store.update(oid, {"v": 77}, number=1)
    assert store.deref_specific(oid, 1) == {"v": 77}
    assert store.deref_generic(oid) == {"v": 1}  # default is v2


def test_specific_deref_of_unversioned_rejected(store):
    oid = store.create({"v": 1})
    with pytest.raises(BaselineError):
        store.deref_specific(oid, 1)


def test_missing_object(store):
    with pytest.raises(BaselineError):
        store.deref_generic(123)
