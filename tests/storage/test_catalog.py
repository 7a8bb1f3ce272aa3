"""Unit tests for the system catalog."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError
from repro.storage import serialization
from repro.storage.buffer import BufferPool
from repro.storage.catalog import CATALOG_FILE_ID, Catalog
from repro.storage.disk import DiskManager


@pytest.fixture
def env(tmp_path):
    disk = DiskManager(tmp_path / "data.odb")
    pool = BufferPool(disk)
    yield disk, pool
    disk.close()


@pytest.fixture
def catalog(env):
    disk, pool = env
    return Catalog(disk, pool)


def test_ensure_heap_assigns_distinct_ids(catalog):
    a = catalog.ensure_heap("alpha")
    b = catalog.ensure_heap("beta")
    assert a.file_id != b.file_id
    assert a.file_id != CATALOG_FILE_ID
    assert catalog.heap_names() == ["alpha", "beta"]


def test_ensure_heap_is_idempotent(catalog):
    a1 = catalog.ensure_heap("alpha")
    a2 = catalog.ensure_heap("alpha")
    assert a1 is a2


def test_heap_by_id_shares_instances(catalog):
    a = catalog.ensure_heap("alpha")
    assert catalog.heap_by_id(a.file_id) is a


def test_counters_start_at_one(catalog):
    assert catalog.next_value("seq") == 1
    assert catalog.next_value("seq") == 2
    assert catalog.peek_value("seq") == 2
    assert catalog.peek_value("other") == 0


def test_counters_independent(catalog):
    catalog.next_value("a")
    catalog.next_value("a")
    assert catalog.next_value("b") == 1


def test_persistence_across_reopen(tmp_path):
    disk = DiskManager(tmp_path / "d.odb")
    pool = BufferPool(disk)
    catalog = Catalog(disk, pool)
    heap = catalog.ensure_heap("things")
    rid = heap.insert(b"a record")
    catalog.next_value("ids")
    catalog.next_value("ids")
    pool.flush_all()
    disk.close()

    disk2 = DiskManager(tmp_path / "d.odb")
    pool2 = BufferPool(disk2)
    catalog2 = Catalog(disk2, pool2)
    assert catalog2.heap_names() == ["things"]
    assert catalog2.peek_value("ids") == 2
    assert catalog2.next_value("ids") == 3
    assert catalog2.ensure_heap("things").read(rid) == b"a record"
    disk2.close()


def test_reload_restores_cached_view(catalog):
    catalog.next_value("n")
    catalog.ensure_heap("h")
    catalog.reload()
    assert catalog.peek_value("n") == 1
    assert catalog.heap_names() == ["h"]


def test_file_ids_not_reused_for_new_names(catalog):
    a = catalog.ensure_heap("a")
    b = catalog.ensure_heap("b")
    c = catalog.ensure_heap("c")
    assert len({a.file_id, b.file_id, c.file_id}) == 3


def test_a_record_of_another_kind_is_refused(catalog):
    """The catalog holds heaps and counters only: a ``"root"`` record (the
    named roots retention rules and tags once lived in) raises at load."""
    catalog.ensure_heap("alpha")
    catalog._heap.insert(serialization.encode(("root", "ode.tag:1:1", "x")))
    with pytest.raises(CatalogError, match="unknown catalog record kind 'root'"):
        catalog.reload()
