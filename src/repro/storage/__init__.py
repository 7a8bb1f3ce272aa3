"""The persistence library: the substrate under the versioning kernel.

This package is the Python analogue of the Buroff--Shasha C++ persistence
library the paper's implementation section relies on (paper §6, [10]):
fixed-size slotted pages over a single database file, a pinning buffer
pool, heap files with stable record ids, a write-ahead log with crash
recovery, a stable binary codec, deltas for derived-from version storage,
and a system catalog.
"""

from repro.storage.buffer import BufferPool, DEFAULT_POOL_SIZE
from repro.storage.catalog import CATALOG_FILE_ID, Catalog
from repro.storage.delta import (
    DeltaStats,
    apply_delta,
    compute_delta,
    delta_stats,
)
from repro.storage.disk import DiskManager, META_PAGE_ID
from repro.storage.heap import MAX_INLINE, HeapFile, Rid
from repro.storage.pages import MAX_RECORD_PAYLOAD, PAGE_SIZE, SlottedPage
from repro.storage.serialization import decode, encode, register_type
from repro.storage.wal import LogManager, LogRecord, RecoveryReport, recover

__all__ = [
    "BufferPool",
    "DEFAULT_POOL_SIZE",
    "CATALOG_FILE_ID",
    "Catalog",
    "DeltaStats",
    "apply_delta",
    "compute_delta",
    "delta_stats",
    "DiskManager",
    "META_PAGE_ID",
    "MAX_INLINE",
    "HeapFile",
    "Rid",
    "MAX_RECORD_PAYLOAD",
    "PAGE_SIZE",
    "SlottedPage",
    "decode",
    "encode",
    "register_type",
    "LogManager",
    "LogRecord",
    "RecoveryReport",
    "recover",
]
