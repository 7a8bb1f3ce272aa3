"""Unit tests for the sequential reference model."""

from __future__ import annotations

import pytest

from repro.verify.model import ModelError, ModelStore, history


@pytest.fixture
def store():
    return ModelStore()


def test_pnew_and_read(store):
    assert store.pnew("x", 10) == 1
    assert store.read("x") == 10
    assert store.latest("x") == 1
    assert store.serials("x") == [1]


def test_newversion_copies_base_and_advances_latest(store):
    store.pnew("x", 10)
    serial, dprev = store.newversion("x")
    assert (serial, dprev) == (2, 1)
    assert store.read("x") == 10  # copied contents
    store.write("x", 20)
    assert store.read("x", 1) == 10  # old version untouched


def test_newversion_from_old_base_creates_alternative(store):
    store.pnew("x", 1)
    store.newversion("x")
    serial, dprev = store.newversion("x", base=1)
    assert (serial, dprev) == (3, 1)
    assert store.dnext("x", 1) == [2, 3]
    assert store.leaves("x") == [2, 3]
    assert store.alternatives("x") == [[1, 2], [1, 3]]


def test_vdelete_reparents_children(store):
    store.pnew("x", 1)
    store.newversion("x")  # 2 <- 1
    store.newversion("x", base=2)  # 3 <- 2
    store.vdelete("x", 2)
    assert store.serials("x") == [1, 3]
    assert store.dprevious("x", 3) == 1
    assert store.history("x", 3) == [3, 1]


def test_vdelete_last_version_deletes_object(store):
    store.pnew("x", 1)
    store.vdelete("x", 1)
    assert not store.exists("x")


def test_serials_never_recycle_after_delete(store):
    store.pnew("x", 1)
    store.newversion("x")
    store.vdelete("x", 2)
    serial, dprev = store.newversion("x")
    assert serial == 3  # 2 is burnt, exactly like the kernel's graph


def test_temporal_traversals(store):
    store.pnew("x", 1)
    store.newversion("x")
    store.newversion("x")
    assert store.tprevious("x", 3) == 2
    assert store.tnext("x", 1) == 2
    assert store.tprevious("x", 1) is None
    assert store.tnext("x", 3) is None


def test_version_as_of_uses_creation_times(store):
    store.pnew("x", 1, ctime=10.0)
    store.newversion("x", ctime=20.0)
    store.newversion("x", ctime=30.0)
    assert store.version_as_of("x", 5.0) is None
    assert store.version_as_of("x", 10.0) == 1
    assert store.version_as_of("x", 25.0) == 2
    assert store.version_as_of("x", 99.0) == 3


def test_rewound_clock_clamps_like_the_kernel(store):
    store.pnew("x", 1, ctime=100.0)
    store.newversion("x", ctime=50.0)  # clock stepped backwards
    assert store.version_as_of("x", 100.0) == 2  # clamped to 100.0


def test_unknown_key_and_serial_raise(store):
    with pytest.raises(ModelError):
        store.read("nope")
    store.pnew("x", 1)
    with pytest.raises(ModelError):
        store.read("x", 9)
    with pytest.raises(ModelError):
        store.newversion("x", base=9)
    with pytest.raises(ModelError):
        store.pnew("x", 2)


def test_clone_is_independent(store):
    store.pnew("x", 1)
    twin = store.clone()
    twin.write("x", 99)
    twin.newversion("x")
    assert store.read("x") == 1
    assert store.serials("x") == [1]


def test_export_shape_and_dead_objects(store):
    store.pnew("x", 1)
    store.newversion("x")
    store.write("x", 2)
    assert store.export(["x", "ghost"]) == {"x": (2, ((1, None, 1), (2, 1, 2)))}
    assert store.export() == store.export(["x"])
    # The high-water mark outlives the version that set it.
    store.vdelete("x", 2)
    assert store.export() == {"x": (2, ((1, None, 1),))}
    store.odelete("x")
    assert store.export(["x"]) == {}


def test_history_decodes_a_real_export_into_the_model_shape(store):
    store.pnew("x", 1)
    store.newversion("x")
    store.write("x", 2)
    rows = [("x", "T", 2, [(1, None, 10.0, b"1"), (2, 1, 11.0, b"2")])]
    assert history(rows, lambda content: int(content)) == store.export()