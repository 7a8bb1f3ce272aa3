"""Oid -> shard placement.

Placement is arithmetic, not a lookup table: shard ``i`` of ``n`` only
ever allocates oids congruent to ``i`` modulo ``n`` (the store's
``oid_stride``/``oid_residue`` slice), so any oid's home shard is
``oid.value % n`` with no directory to maintain, replicate, or recover.
The router routes on it alone and never asks a second shard; what makes
that safe is checked where it can break, when a shard's files are opened
(see ``ShardedDatabase._open_shard``).
"""

from __future__ import annotations

from repro.core.identity import Oid


class ModuloPlacement:
    """The default placement: home shard = ``oid.value % nshards``."""

    def __init__(self, nshards: int) -> None:
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        self.nshards = nshards

    def shard_of(self, oid: Oid) -> int:
        """Home shard index for ``oid``."""
        return oid.value % self.nshards

    def residue(self, shard: int) -> int:
        """The oid residue class shard ``shard`` allocates from."""
        if not 0 <= shard < self.nshards:
            raise ValueError(f"shard {shard} out of range [0, {self.nshards})")
        return shard

    def __repr__(self) -> str:
        return f"ModuloPlacement(nshards={self.nshards})"
