"""Exception hierarchy for ode-py.

Every error raised by the library derives from :class:`OdeError`, so callers
can catch one base class at an API boundary.  The hierarchy mirrors the
subsystems: storage errors (pages, heap, WAL), identity/version errors (the
paper's kernel), transaction errors, and policy errors.
"""

from __future__ import annotations


class OdeError(Exception):
    """Base class for every error raised by ode-py."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(OdeError):
    """Base class for errors raised by the persistence substrate."""


class PageError(StorageError):
    """A slotted-page operation failed (bad slot, page overflow, ...)."""


class PageFullError(PageError):
    """The record does not fit in the page's free space."""


class BadSlotError(PageError):
    """The referenced slot does not exist or holds no record."""


class DiskError(StorageError):
    """Low-level file I/O against the database file failed."""


class BufferPoolError(StorageError):
    """The buffer pool could not satisfy a request (e.g. all frames pinned)."""


class HeapError(StorageError):
    """A heap-file record operation failed."""


class RecordNotFoundError(HeapError):
    """No record lives at the given record id."""


class WalError(StorageError):
    """The write-ahead log is corrupt or an append/replay failed."""


class SerializationError(StorageError):
    """A value could not be encoded to or decoded from the stable codec."""


class DeltaError(StorageError):
    """A delta could not be computed or applied against its base."""


class CatalogError(StorageError):
    """The system catalog is missing an entry or is inconsistent."""


class BlobError(StorageError):
    """A content-addressed blob operation failed (bad key, refcount bug)."""


class BlobMissingError(BlobError):
    """The blob file for a content key is not on disk.

    Snapshot readers treat this exactly like a deleted heap record: the
    payload was displaced by a writer or the GC, so the reader re-checks
    its stash overlay (stash-before-overwrite guarantees the bytes are
    there for any version the snapshot can still reach).  Seen outside
    that protocol it indicates a refcount-accounting bug -- the blob
    audit in ``repro.tools.check`` looks for exactly that.
    """


class BlobCorruptError(BlobError):
    """A frame's bytes do not match its length/crc header: never returned."""


# ---------------------------------------------------------------------------
# Versioning kernel
# ---------------------------------------------------------------------------


class VersionError(OdeError):
    """Base class for version-graph and version-store errors."""


class UnknownObjectError(VersionError):
    """The object id does not name a live persistent object."""


class UnknownVersionError(VersionError):
    """The version id does not name a live version."""


class DanglingReferenceError(VersionError):
    """A Ref/VersionRef was dereferenced after its target was deleted."""


class GraphInvariantError(VersionError):
    """An internal version-graph invariant was violated (a bug if seen)."""


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class TransactionError(OdeError):
    """Base class for transaction failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (explicitly or by conflict)."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired before the transaction's deadline."""


class DeadlockError(TransactionError):
    """The wait-for graph detector chose this transaction as a deadlock victim.

    Carries the detected cycle (a tuple of transaction ids, in wait order)
    and the victim's txid so callers and tests can see *why* the abort
    happened.  Retryable: abort and re-run the transaction (see
    ``Database.run_transaction``).
    """

    def __init__(
        self,
        message: str,
        cycle: tuple[int, ...] = (),
        victim: int | None = None,
    ) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)
        self.victim = victim


class TransactionStateError(TransactionError):
    """An operation was issued against a finished or inactive transaction."""


class ReadOnlySnapshotError(TransactionError):
    """A write was attempted through a snapshot view or snapshot-read
    transaction.

    Snapshot views and snapshot-read transactions reject writes; use an
    ordinary transaction (strict 2PL) for mutations.
    """


class DatabaseDegradedError(OdeError):
    """The database is in read-only degraded mode after persistent I/O failure.

    Reads and version traversal keep working; writes fail fast with this
    error.  Not retryable -- the condition persists until the process is
    restarted against healthy storage.  ``Database.degraded_reason`` (and
    ``db.stats()['degraded.reason']``) say what went wrong.
    """


# ---------------------------------------------------------------------------
# Network service layer
# ---------------------------------------------------------------------------


class NetworkError(OdeError):
    """Base class for errors raised by the network service layer."""


class DeadlineExceededError(NetworkError):
    """A wire operation did not complete within its deadline.

    Raised client-side: the request may or may not have executed on the
    server (a timed-out commit is *indeterminate* -- the value may be
    durable).  Retryable for idempotent operations; read-modify-write
    sequences must re-run from the read.
    """


class ServerOverloadedError(NetworkError):
    """The server shed this request under admission control.

    The connection exceeded its bounded in-flight budget; the request
    was rejected before execution, so retrying after backoff is always
    safe (the server did not run it).
    """


class ServerDrainingError(NetworkError):
    """The server is draining: finishing in-flight work, taking no new.

    New transactions and mutations are refused while a graceful shutdown
    completes.  Retryable -- against a replacement server, or after the
    drain is cancelled.
    """


class SessionStateError(NetworkError):
    """A session was used illegally (closed, or active on two threads)."""


class ProtocolError(NetworkError):
    """A wire frame could not be parsed (bad magic, malformed header/body)."""


class FrameBodyError(ProtocolError):
    """A complete frame whose body does not decode (the ``__cause__``):
    framing is intact, so only the request ``cid`` names fails."""

    def __init__(self, message: str, cid: int = 0) -> None:
        super().__init__(message)
        self.cid = cid


class FrameTooLargeError(ProtocolError):
    """A frame declared a payload larger than the negotiated maximum.

    The server answers with a clean error frame before closing the
    connection, so a misbehaving client learns why it was dropped.
    """


class ConnectionClosedError(NetworkError):
    """The connection closed while requests were still in flight."""


class RemoteError(NetworkError):
    """The server reported an error that has no local exception class.

    Known kernel errors (``DeadlockError``, ``UnknownObjectError``, ...)
    are re-raised client-side as their real classes; this is the fallback
    carrier for anything else.  ``error_name`` holds the server-side
    class name.
    """

    def __init__(self, message: str, error_name: str = "RemoteError") -> None:
        super().__init__(message)
        self.error_name = error_name


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


class ShardUnavailableError(OdeError):
    """The operation touched a shard that is down (its failure domain).

    The sharded router fails such operations *fast* -- no hang, no
    timeout burn -- while reads and transactions confined to healthy
    shards keep serving.  Retryable: the shard may be reattached online
    (``ShardedDatabase.reattach_shard``), after which the same operation
    succeeds.  ``shard`` names the down shard when known.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


# ---------------------------------------------------------------------------
# Policies and baselines
# ---------------------------------------------------------------------------


class PolicyError(OdeError):
    """Base class for errors in policy modules (configurations, ...)."""


class ConfigurationError(PolicyError):
    """A configuration binding is missing or cannot be resolved."""


class BaselineError(OdeError):
    """Base class for errors raised by the related-work baseline models."""


class NotVersionableError(BaselineError):
    """ORION-style model: the class was not declared versionable."""


class CheckoutError(BaselineError):
    """ORION-style model: invalid checkout/checkin sequence."""
