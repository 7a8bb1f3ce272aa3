"""A1 -- ablations of this implementation's own design choices.

Not from the paper: these quantify the knobs DESIGN.md §4 calls out in
*our* substrate, so a downstream user can size them.

* attribute indexes vs. cluster scans, across cluster sizes;
* buffer pool size vs. read latency on a working set larger than the pool;
* WAL autocheckpoint threshold vs. steady-state insert cost.
"""

from __future__ import annotations

import pytest

from repro import Database, persistent
from repro.core.indexes import attr_equals


@persistent(name="bench.A1Item")
class A1Item:
    def __init__(self, key: str, n: int) -> None:
        self.key = key
        self.n = n


def _populate(db, count: int) -> None:
    for i in range(count):
        db.pnew(A1Item(f"k{i % 50}", i))


@pytest.mark.parametrize("count", [100, 2000])
def test_a1_query_scan(tmp_path, benchmark, count):
    db = Database(tmp_path / f"a1_scan_{count}")
    try:
        _populate(db, count)
        query = db.query(A1Item).suchthat(attr_equals("key", "k7"))
        result = benchmark(query.count)
        assert result == count // 50
        benchmark.extra_info["cluster_size"] = count
    finally:
        db.close()


@pytest.mark.parametrize("count", [100, 2000])
def test_a1_query_indexed(tmp_path, benchmark, count):
    """Same query with a hash index: flat in cluster size."""
    db = Database(tmp_path / f"a1_idx_{count}")
    try:
        _populate(db, count)
        db.create_index(A1Item, "key")
        query = db.query(A1Item).suchthat(attr_equals("key", "k7"))
        result = benchmark(query.count)
        assert result == count // 50
        benchmark.extra_info["cluster_size"] = count
    finally:
        db.close()


def test_a1_index_maintenance_overhead(tmp_path, benchmark):
    """Insert cost with 3 indexes armed vs. the raw insert (compare to
    test_e11_pnew)."""
    db = Database(tmp_path / "a1_maint")
    try:
        db.create_index(A1Item, "key")
        db.create_index(A1Item, "n")
        db.create_index(A1Item, "missing_attr")
        state = {"i": 0}

        def insert():
            state["i"] += 1
            db.pnew(A1Item(f"k{state['i']}", state["i"]))

        benchmark(insert)
        assert len(db.create_index(A1Item, "key")._value_of) == state["i"]
    finally:
        db.close()


@pytest.mark.parametrize("pool_size", [8, 256])
def test_a1_pool_size_read_latency(tmp_path, benchmark, pool_size):
    """Working set of ~60 pages through small vs. large pools."""
    db = Database(tmp_path / f"a1_pool_{pool_size}", pool_size=pool_size)
    try:
        refs = [db.pnew(A1Item("k" * 400, i)) for i in range(300)]
        db.checkpoint()

        def read_all():
            return sum(r.n for r in refs)

        total = benchmark(read_all)
        assert total == sum(range(300))
        stats = db.stats()
        benchmark.extra_info["pool_size"] = pool_size
        benchmark.extra_info["evictions"] = stats["pool.evictions"]
    finally:
        db.close()


@pytest.mark.parametrize("threshold", [4096, 1024 * 1024])
def test_a1_checkpoint_threshold(tmp_path, benchmark, threshold):
    """Aggressive checkpoints trade insert latency for fast recovery."""
    db = Database(tmp_path / f"a1_ckpt_{threshold}", checkpoint_threshold=threshold)
    try:
        state = {"i": 0}

        def insert():
            state["i"] += 1
            db.pnew(A1Item("x", state["i"]))

        benchmark.pedantic(insert, rounds=60, iterations=1)
        benchmark.extra_info["threshold"] = threshold
        benchmark.extra_info["wal_bytes_after"] = db.stats()["wal.bytes"]
    finally:
        db.close()
