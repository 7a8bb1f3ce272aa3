"""Delta codec: store a version as its difference from the derived-from base.

Paper §3: "The derived-from relationship can be used to store versions by
storing their 'differences' (called deltas [28, 32])" -- citing SCCS and
RCS.  This module provides the binary-delta machinery that the version
store's ``delta`` storage policy uses, and experiment E5 measures the
space/latency trade-off against full copies.

Algorithm: trim, then rsync-style block matching on what is left.  The
store mostly diffs a version against a near-copy of itself (``newversion``
starts as its base byte for byte; an edit rewrites a slice), so the
encoder first strips the prefix and suffix the two payloads share, with
bytes-level comparisons, and emits each as one ``COPY``.  Identical
payloads end there: one ``COPY(0, n)``, nothing indexed.  Only the
*middle* of the target -- proportional to the edit, not to the payload --
reaches the block matcher: the base is split into fixed-size blocks
indexed by their bytes (the first of equal blocks wins), every window of
the target middle is looked up in that index as it is -- one slice and
one hash probe per position, no rolling checksum to confirm -- and a
match is extended past the block boundary slice by slice.
Unmatched bytes accumulate into ``ADD`` ops, and a ``COPY`` whose
encoding would be no shorter than the bytes it stands for is folded into
the surrounding literal.  Applying a delta is a single pass over its ops.

Delta wire format (all varints)::

    magic 'D1' | base_len | target_len | op*
    op := 0x01 len bytes           -- ADD literal
        | 0x02 offset len          -- COPY from base

The codec verifies ``base_len`` on apply, so applying a delta to the wrong
base fails loudly instead of producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeltaError
from repro.storage.serialization import read_uvarint, write_uvarint

#: Default block size for the base index.  Small enough to find matches in
#: page-sized records, large enough that the index stays compact.
DEFAULT_BLOCK_SIZE = 64

_MAGIC = b"D1"
_OP_ADD = 0x01
_OP_COPY = 0x02

def _common_prefix(a: bytes, a_at: int, b: bytes, b_at: int, limit: int) -> int:
    """Length of the run ``a[a_at:]`` and ``b[b_at:]`` share, up to ``limit``.

    Compares doubling chunks (memcmp speed, total work proportional to the
    run found), then locates the first differing byte inside the chunk
    that broke it from the big-endian XOR of the two halves.
    """
    done = 0
    step = 64
    while done < limit:
        size = min(step, limit - done)
        x = a[a_at + done : a_at + done + size]
        y = b[b_at + done : b_at + done + size]
        if x != y:
            diff = int.from_bytes(x, "big") ^ int.from_bytes(y, "big")
            return done + size - (diff.bit_length() + 7) // 8
        done += size
        step *= 2
    return limit


@dataclass(frozen=True)
class DeltaStats:
    """Size accounting for one computed delta (used by experiment E5)."""

    base_len: int
    target_len: int
    delta_len: int
    copy_bytes: int
    add_bytes: int

    @property
    def ratio(self) -> float:
        """Delta size relative to the target (< 1.0 means the delta saves space)."""
        if self.target_len == 0:
            return 0.0 if self.delta_len == 0 else float("inf")
        return self.delta_len / self.target_len


def compute_delta(
    base: bytes, target: bytes, block_size: int = DEFAULT_BLOCK_SIZE
) -> bytes:
    """Compute a delta that transforms ``base`` into ``target``.

    Always succeeds; in the worst case the delta is one big ADD (slightly
    larger than the target itself).  Callers deciding between full-copy and
    delta storage should compare ``len(delta)`` with ``len(target)``.
    """
    if block_size < 8:
        raise DeltaError("block size must be >= 8")
    out = bytearray(_MAGIC)
    write_uvarint(out, len(base))
    write_uvarint(out, len(target))

    shorter = min(len(base), len(target))
    prefix = _common_prefix(base, 0, target, 0, shorter)
    limit = shorter - prefix  # the suffix may not overlap the prefix
    suffix = _common_prefix(
        base[len(base) - limit :][::-1], 0, target[len(target) - limit :][::-1], 0, limit
    )
    end = len(target) - suffix  # the target middle is target[prefix:end]

    # ``literal_start`` is where the pending (not yet emitted) literal
    # begins; everything before it is encoded.
    literal_start = _emit_copy(out, target, 0, 0, 0, prefix)

    if end - prefix >= block_size:
        # Index the base's blocks by their bytes (all of them: an edit may
        # repeat content from outside the middle); the first one wins.
        blocks: dict[bytes, int] = {}
        for start in range(0, len(base) - block_size + 1, block_size):
            blocks.setdefault(base[start : start + block_size], start)
        pos = prefix
        while pos + block_size <= end:
            match_start = blocks.get(target[pos : pos + block_size])
            if match_start is None:
                pos += 1
                continue
            # Extend the match greedily beyond the block.
            length = block_size + _common_prefix(
                base, match_start + block_size, target, pos + block_size,
                min(len(base) - match_start, end - pos) - block_size,
            )
            literal_start = _emit_copy(out, target, literal_start, pos, match_start, length)
            pos += length

    literal_start = _emit_copy(
        out, target, literal_start, end, len(base) - suffix, suffix
    )
    _emit_add(out, target[literal_start:])
    return bytes(out)


def identity_delta(content: bytes) -> bytes:
    """``compute_delta(content, content)`` without the diff: ``COPY(0, n)``
    from the length alone (the diff's literal where that is no shorter)."""
    out = bytearray(_MAGIC)
    write_uvarint(out, len(content))
    write_uvarint(out, len(content))
    op = bytearray((_OP_COPY, 0))
    write_uvarint(op, len(content))
    if len(op) >= len(content):
        return compute_delta(content, content)
    return bytes(out + op)


def _emit_add(out: bytearray, data: bytes | memoryview) -> None:
    if len(data):
        out.append(_OP_ADD)
        write_uvarint(out, len(data))
        out.extend(data)


def _emit_copy(
    out: bytearray, target: bytes, literal_start: int, pos: int, offset: int, length: int
) -> int:
    """Encode ``target[pos:pos+length]`` as a COPY from ``base[offset:]``.

    Flushes the pending literal ``target[literal_start:pos]`` first and
    returns the new literal start.  A COPY that would not be shorter than
    the bytes it stands for is not emitted: those bytes simply join the
    pending literal, so trimming or matching never makes a delta larger.
    """
    op = bytearray((_OP_COPY,))
    write_uvarint(op, offset)
    write_uvarint(op, length)
    if len(op) >= length:
        return literal_start
    _emit_add(out, target[literal_start:pos])
    out += op
    return pos + length


def apply_delta(base: bytes, delta: bytes, counters: object | None = None) -> bytes:
    """Reconstruct the target from ``base`` and a delta.

    Raises :class:`DeltaError` if the delta is malformed, was computed
    against a base of a different length, or reconstructs the wrong number
    of bytes.

    ``counters`` (optional) is any object with a ``deltas_applied``
    attribute -- e.g. :class:`repro.core.cache.CacheStats` -- incremented
    once per successful application, so callers can measure how much
    chain-replay work their cache layer did *not* absorb.
    """
    if delta[:2] != _MAGIC:
        raise DeltaError("not a delta (bad magic)")
    pos = 2
    base_len, pos = read_uvarint(delta, pos)
    target_len, pos = read_uvarint(delta, pos)
    if base_len != len(base):
        raise DeltaError(
            f"delta was computed against a {base_len}-byte base, got {len(base)} bytes"
        )
    out = bytearray()
    n = len(delta)
    while pos < n:
        op = delta[pos]
        pos += 1
        if op == _OP_ADD:
            length, pos = read_uvarint(delta, pos)
            if pos + length > n:
                raise DeltaError("truncated ADD op")
            out.extend(delta[pos : pos + length])
            pos += length
        elif op == _OP_COPY:
            offset, pos = read_uvarint(delta, pos)
            length, pos = read_uvarint(delta, pos)
            if offset + length > len(base):
                raise DeltaError("COPY op reaches past end of base")
            out.extend(base[offset : offset + length])
        else:
            raise DeltaError(f"unknown delta op 0x{op:02x}")
    if len(out) != target_len:
        raise DeltaError(
            f"delta reconstructed {len(out)} bytes, expected {target_len}"
        )
    if counters is not None:
        counters.deltas_applied += 1
    return bytes(out)


def delta_stats(base: bytes, target: bytes, delta: bytes) -> DeltaStats:
    """Decompose a delta into COPY/ADD byte counts (for experiment E5)."""
    if delta[:2] != _MAGIC:
        raise DeltaError("not a delta (bad magic)")
    pos = 2
    _base_len, pos = read_uvarint(delta, pos)
    _target_len, pos = read_uvarint(delta, pos)
    copy_bytes = 0
    add_bytes = 0
    n = len(delta)
    while pos < n:
        op = delta[pos]
        pos += 1
        if op == _OP_ADD:
            length, pos = read_uvarint(delta, pos)
            add_bytes += length
            pos += length
        elif op == _OP_COPY:
            _offset, pos = read_uvarint(delta, pos)
            length, pos = read_uvarint(delta, pos)
            copy_bytes += length
        else:
            raise DeltaError(f"unknown delta op 0x{op:02x}")
    return DeltaStats(
        base_len=len(base),
        target_len=len(target),
        delta_len=len(delta),
        copy_bytes=copy_bytes,
        add_bytes=add_bytes,
    )

