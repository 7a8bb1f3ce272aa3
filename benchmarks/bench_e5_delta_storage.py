"""E5 -- derived-from deltas vs. full copies (paper §3, [28, 32]).

The paper points at SCCS/RCS deltas as the natural use of the derived-from
relationship.  This experiment sweeps payload size, edit ratio, and chain
depth and reports the space ratio and the materialization latency of both
storage policies.

Expected shape (DESIGN.md): delta space ~ edit ratio (far below 1.0 for
small edits); materialization cost grows with distance from the nearest
keyframe, which the keyframe interval bounds.
"""

from __future__ import annotations

import os

import pytest

from repro import Database, StoragePolicy
from repro.storage.delta import compute_delta, delta_stats
from repro.workloads.synthetic import Blob, mutate_payload, random_payload


@pytest.mark.parametrize("size", [1024, 16384])
@pytest.mark.parametrize("edit_ratio", [0.01, 0.05, 0.20])
def test_e5_delta_space_ratio(benchmark, size, edit_ratio):
    """Delta size tracks the edit ratio, not the payload size."""
    base = random_payload(size, seed=42)
    target = mutate_payload(base, edit_ratio, seed=43)
    delta = benchmark(lambda: compute_delta(base, target))
    stats = delta_stats(base, target, delta)
    benchmark.extra_info["size"] = size
    benchmark.extra_info["edit_ratio"] = edit_ratio
    benchmark.extra_info["space_ratio"] = round(stats.ratio, 4)
    # Shape claim: a small edit produces a much-smaller-than-full delta...
    if edit_ratio <= 0.05 and size >= 1024:
        assert stats.ratio < 0.5
    # ...and the delta is never uselessly larger than ~the target + framing.
    assert stats.ratio < 1.2


@pytest.mark.parametrize("depth", [4, 16, 64])
def test_e5_materialization_latency_vs_depth(tmp_path, benchmark, depth):
    """Reading the newest version of a delta chain of the given depth.

    keyframe_interval exceeds the depth here, so the whole chain really is
    deltas -- the worst case the keyframe policy exists to bound.
    """
    db = Database(
        tmp_path / f"e5_depth_{depth}",
        policy=StoragePolicy(kind="delta", keyframe_interval=depth + 2),
    )
    try:
        data = random_payload(8192, seed=1)
        ref = db.pnew(Blob(data))
        for i in range(depth):
            v = db.newversion(ref)
            data = mutate_payload(data, 0.05, seed=i)
            v.data = data
        db.store._bytes_cache.clear()

        def read_latest():
            db.store._bytes_cache.clear()  # force the chain walk
            return ref.data

        result = benchmark(read_latest)
        assert result == data
        benchmark.extra_info["depth"] = depth
    finally:
        db.close()


@pytest.mark.parametrize("keyframe", [4, 64])
def test_e5_keyframes_bound_read_cost(tmp_path, benchmark, keyframe):
    """Same 64-deep chain; small keyframe interval caps the walk."""
    db = Database(
        tmp_path / f"e5_kf_{keyframe}",
        policy=StoragePolicy(kind="delta", keyframe_interval=keyframe),
    )
    try:
        data = random_payload(8192, seed=1)
        ref = db.pnew(Blob(data))
        for i in range(64):
            v = db.newversion(ref)
            data = mutate_payload(data, 0.05, seed=i)
            v.data = data

        def read_latest():
            db.store._bytes_cache.clear()
            return ref.data

        result = benchmark(read_latest)
        assert result == data
        benchmark.extra_info["keyframe_interval"] = keyframe
    finally:
        db.close()


def test_e5_space_full_vs_delta_database(tmp_path, benchmark):
    """Stored bytes after the same 48-revision workload: the data file plus
    the pack bytes a version record references (payloads over 256 B live
    in packs, not in heap pages), once the collector has nothing left to
    reclaim, so bodies the in-place writes displaced are not counted."""

    def build(policy: StoragePolicy, name: str) -> int:
        db = Database(tmp_path / name, policy=policy)
        try:
            data = random_payload(8192, seed=5)
            ref = db.pnew(Blob(data))
            for i in range(48):
                v = db.newversion(ref)
                data = mutate_payload(data, 0.03, seed=100 + i)
                v.data = data
            for _ in range(8):
                if not db.run_gc().candidates_remaining:
                    break
            db.checkpoint()
            stats = db.stats()
            assert stats["blobs.pending_reclaim"] == 0
            referenced = sum(
                size for refcount, size in db.store.blob_entries().values() if refcount
            )
            return os.path.getsize(os.path.join(db.path, "data.odb")) + referenced
        finally:
            db.close()

    full_bytes = build(StoragePolicy(kind="full"), "e5_full")
    delta_bytes = benchmark.pedantic(
        lambda: build(StoragePolicy(kind="delta", keyframe_interval=16), "e5_delta"),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["full_bytes"] = full_bytes
    benchmark.extra_info["delta_bytes"] = delta_bytes
    # Shape claim: deltas save real space on small-edit workloads.
    assert delta_bytes < full_bytes * 0.6


def test_e5_full_copy_read_is_flat(tmp_path, benchmark):
    """Full-copy reads do not depend on chain depth (the trade-off's other
    side)."""
    db = Database(tmp_path / "e5_full_read", policy=StoragePolicy(kind="full"))
    try:
        data = random_payload(8192, seed=2)
        ref = db.pnew(Blob(data))
        for i in range(64):
            v = db.newversion(ref)
            data = mutate_payload(data, 0.05, seed=i)
            v.data = data

        def read_latest():
            db.store._bytes_cache.clear()
            return ref.data

        result = benchmark(read_latest)
        assert result == data
    finally:
        db.close()
