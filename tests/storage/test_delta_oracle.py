"""``compute_delta`` against a frozen copy of its rolling-checksum form.

The encoder finds base blocks by their bytes (a ``dict[bytes, int]``
probe per window).  It used to find them with an Adler-32 index and the
rolling form of that checksum, confirming each hit by comparing bytes.
Both pick the first equal block at the first window that has one, so
their output must agree byte for byte -- stored deltas, E5's counted
sizes and every golden image depend on it.  ``_rolling_delta`` below is
that older encoder, kept verbatim as the oracle.
"""

from __future__ import annotations

import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.delta import apply_delta, compute_delta
from repro.storage.serialization import write_uvarint

_ADLER_MOD = 65521


def _common_prefix(a: bytes, a_at: int, b: bytes, b_at: int, limit: int) -> int:
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


def _emit_add(out: bytearray, data: bytes) -> None:
    if len(data) == 0:
        return
    out.append(0x01)
    write_uvarint(out, len(data))
    out.extend(data)


def _emit_copy(out, target, literal_start, pos, offset, length) -> int:
    op = bytearray((0x02,))
    write_uvarint(op, offset)
    write_uvarint(op, length)
    if len(op) >= length:
        return literal_start
    _emit_add(out, target[literal_start:pos])
    out += op
    return pos + length


def _rolling_delta(base: bytes, target: bytes, block_size: int = 64) -> bytes:
    out = bytearray(b"D1")
    write_uvarint(out, len(base))
    write_uvarint(out, len(target))
    shorter = min(len(base), len(target))
    prefix = _common_prefix(base, 0, target, 0, shorter)
    limit = shorter - prefix
    suffix = _common_prefix(
        base[len(base) - limit :][::-1], 0, target[len(target) - limit :][::-1], 0, limit
    )
    end = len(target) - suffix
    literal_start = _emit_copy(out, target, 0, 0, 0, prefix)
    if end - prefix >= block_size:
        index: dict[int, list[int]] = {}
        for start in range(0, len(base) - block_size + 1, block_size):
            index.setdefault(
                zlib.adler32(base[start : start + block_size]), []
            ).append(start)
        pos = prefix
        a = b = 0
        rolled = False
        while pos + block_size <= end:
            if not rolled:
                weak = zlib.adler32(target[pos : pos + block_size])
                a, b = weak & 0xFFFF, weak >> 16
                rolled = True
            match_start = -1
            candidates = index.get((b << 16) | a)
            if candidates:
                window = target[pos : pos + block_size]
                for start in candidates:
                    if base[start : start + block_size] == window:
                        match_start = start
                        break
            if match_start >= 0:
                length = block_size + _common_prefix(
                    base,
                    match_start + block_size,
                    target,
                    pos + block_size,
                    min(len(base) - match_start, end - pos) - block_size,
                )
                literal_start = _emit_copy(
                    out, target, literal_start, pos, match_start, length
                )
                pos += length
                rolled = False
            else:
                if pos + block_size < end:
                    out_byte = target[pos]
                    a = (a - out_byte + target[pos + block_size]) % _ADLER_MOD
                    b = (b - block_size * out_byte + a - 1) % _ADLER_MOD
                pos += 1
    literal_start = _emit_copy(
        out, target, literal_start, end, len(base) - suffix, suffix
    )
    _emit_add(out, target[literal_start:])
    return bytes(out)


def _payload(rng: random.Random, size: int, alphabet: int) -> bytes:
    """``alphabet`` 1..256 distinct byte values: small ones are low-entropy."""
    return bytes(rng.randrange(alphabet) for _ in range(size))


@st.composite
def shapes(draw) -> tuple[bytes, bytes, int]:
    """A base and a target made from it: edits, moved blocks, rotations,
    repeats, low-entropy and empty payloads, at several block sizes."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([0, 1, 63, 64, 65, 200, 2048, 5000]))
    alphabet = draw(st.sampled_from([1, 2, 4, 256]))
    base = _payload(rng, size, alphabet)
    shape = draw(st.sampled_from(["edit", "move", "rotate", "repeat", "fresh", "same"]))
    target = bytearray(base)
    if shape == "edit":
        for _ in range(draw(st.integers(1, 6))):
            at = rng.randrange(len(target) + 1)
            cut = rng.randrange(0, 80)
            target[at : at + cut] = _payload(rng, rng.randrange(0, 80), alphabet)
    elif shape == "move" and base:
        at, cut = rng.randrange(len(base)), rng.randrange(1, 300)
        moved = bytes(target[at : at + cut])
        del target[at : at + cut]
        to = rng.randrange(len(target) + 1)
        target[to:to] = moved
    elif shape == "rotate" and base:
        turn = rng.randrange(len(base))
        target = target[turn:] + target[:turn]
    elif shape == "repeat" and base:
        at = rng.randrange(len(base))
        target += base[at : at + rng.randrange(1, 400)] * rng.randrange(1, 4)
    elif shape == "fresh":
        target = bytearray(_payload(rng, rng.randrange(0, 3000), alphabet))
    block = draw(st.sampled_from([8, 16, 64]))
    return base, bytes(target), block


@settings(max_examples=300, deadline=None)
@given(shapes())
def test_matching_by_bytes_is_byte_identical_to_the_rolling_checksum(shape):
    base, target, block = shape
    delta = compute_delta(base, target, block)
    assert delta == _rolling_delta(base, target, block)
    assert apply_delta(base, delta) == target


def test_a_moved_block_of_a_large_payload_matches_the_oracle():
    """The 70 KB moved-block case: many windows, one far match."""
    rng = random.Random(7)
    base = _payload(rng, 70_000, 256)
    target = base[35_000:35_000 + 8_000] + base[:35_000] + base[43_000:]
    assert compute_delta(base, target) == _rolling_delta(base, target)
