"""Unit and property tests for the delta codec."""

from __future__ import annotations

import functools
import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError
from repro.storage.delta import (
    DEFAULT_BLOCK_SIZE,
    apply_delta,
    compute_delta,
    delta_stats,
    identity_delta,
)
from repro.storage.serialization import read_uvarint, write_uvarint
from repro.workloads.synthetic import mutate_payload, random_payload


def test_identical_payload_tiny_delta():
    base = random_payload(4096, seed=1)
    delta = compute_delta(base, base)
    assert apply_delta(base, delta) == base
    assert len(delta) < 64  # a couple of COPY ops at most


def test_small_edit_small_delta():
    base = random_payload(8192, seed=2)
    target = mutate_payload(base, 0.02, seed=3)
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target
    assert len(delta) < len(target) // 2


def test_unrelated_payload_delta_still_correct():
    base = random_payload(1024, seed=4)
    target = random_payload(1024, seed=5)
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target


def test_empty_base():
    delta = compute_delta(b"", b"target bytes")
    assert apply_delta(b"", delta) == b"target bytes"


def test_empty_target():
    base = b"some base"
    delta = compute_delta(base, b"")
    assert apply_delta(base, delta) == b""


def test_both_empty():
    delta = compute_delta(b"", b"")
    assert apply_delta(b"", delta) == b""


def test_target_smaller_than_block():
    base = random_payload(500, seed=6)
    delta = compute_delta(base, b"tiny")
    assert apply_delta(base, delta) == b"tiny"


def test_append_only_edit():
    base = random_payload(2048, seed=7)
    target = base + b"appended tail data"
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target
    assert len(delta) < 128


def test_prepend_edit():
    base = random_payload(2048, seed=8)
    target = b"prefix" + base
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target
    assert len(delta) < 256


def test_wrong_base_length_rejected():
    base = random_payload(512, seed=9)
    delta = compute_delta(base, mutate_payload(base, 0.1, seed=10))
    with pytest.raises(DeltaError):
        apply_delta(base + b"x", delta)


def test_garbage_delta_rejected():
    with pytest.raises(DeltaError):
        apply_delta(b"base", b"\x00\x01garbage")


def test_truncated_delta_rejected():
    base = random_payload(512, seed=11)
    delta = compute_delta(base, mutate_payload(base, 0.5, seed=12))
    with pytest.raises(DeltaError):
        apply_delta(base, delta[: len(delta) // 2])


def test_block_size_validation():
    with pytest.raises(DeltaError):
        compute_delta(b"a", b"b", block_size=4)


def test_stats_account_for_everything():
    base = random_payload(4096, seed=13)
    target = mutate_payload(base, 0.1, seed=14)
    delta = compute_delta(base, target)
    stats = delta_stats(base, target, delta)
    assert stats.copy_bytes + stats.add_bytes == len(target)
    assert stats.delta_len == len(delta)
    assert stats.ratio < 1.0


def test_stats_ratio_for_identical():
    base = random_payload(1024, seed=15)
    delta = compute_delta(base, base)
    stats = delta_stats(base, base, delta)
    assert stats.ratio < 0.05


def test_chain_materialization():
    current = random_payload(2048, seed=16)
    root = current
    deltas = []
    for i in range(10):
        nxt = mutate_payload(current, 0.05, seed=100 + i)
        deltas.append(compute_delta(current, nxt))
        current = nxt
    assert functools.reduce(apply_delta, deltas, root) == current


@settings(max_examples=80)
@given(st.binary(max_size=2000), st.binary(max_size=2000))
def test_property_delta_roundtrip(base, target):
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target


@settings(max_examples=40)
@given(
    st.binary(min_size=200, max_size=2000),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1000),
)
def test_property_mutated_roundtrip(base, ratio, seed):
    target = mutate_payload(base, ratio, seed=seed)
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target


# -- shapes the store produces, and the encoder this one replaced -------------------


def _reference_compute_delta(base: bytes, target: bytes, block_size: int = 64) -> bytes:
    """The pre-trim encoder, kept verbatim as the size reference: block
    matching over the whole target, one Python step per byte."""
    mod = 1 << 16

    def weak(data):
        a = b = 0
        for byte in data:
            a = (a + byte) % mod
            b = (b + a) % mod
        return a, b, (b << 16) | a

    def strong(data):
        return hashlib.blake2b(bytes(data), digest_size=8).digest()

    def emit_add(data):
        if len(data):
            out.append(0x01)
            write_uvarint(out, len(data))
            out.extend(data)

    out = bytearray(b"D1")
    write_uvarint(out, len(base))
    write_uvarint(out, len(target))
    if not base or len(target) < block_size:
        emit_add(target)
        return bytes(out)
    index: dict[int, list[tuple[int, bytes]]] = {}
    for start in range(0, len(base) - block_size + 1, block_size):
        blk = base[start : start + block_size]
        index.setdefault(weak(blk)[2], []).append((start, strong(blk)))
    pos = literal_start = 0
    n = len(target)
    a = b = combined = -1
    valid = False
    while pos + block_size <= n:
        window = target[pos : pos + block_size]
        if not valid:
            a, b, combined = weak(window)
            valid = True
        match_start = -1
        candidates = index.get(combined)
        if candidates:
            digest = strong(window)
            for base_start, base_digest in candidates:
                if base_digest == digest:
                    match_start = base_start
                    break
        if match_start >= 0:
            length = block_size
            while (
                pos + length < n
                and match_start + length < len(base)
                and target[pos + length] == base[match_start + length]
            ):
                length += 1
            emit_add(target[literal_start:pos])
            out.append(0x02)
            write_uvarint(out, match_start)
            write_uvarint(out, length)
            pos += length
            literal_start = pos
            valid = False
        else:
            if pos + block_size < n:
                out_byte, in_byte = target[pos], target[pos + block_size]
                a = (a - out_byte + in_byte) % mod
                b = (b - block_size * out_byte + a) % mod
                combined = (b << 16) | a
            pos += 1
    emit_add(target[literal_start:])
    return bytes(out)


def _ops(delta: bytes) -> list[tuple]:
    """Decode a delta's op list: ``("add", n)`` / ``("copy", offset, n)``."""
    assert delta[:2] == b"D1"
    _base_len, pos = read_uvarint(delta, 2)
    _target_len, pos = read_uvarint(delta, pos)
    ops = []
    while pos < len(delta):
        op = delta[pos]
        pos += 1
        if op == 0x01:
            length, pos = read_uvarint(delta, pos)
            ops.append(("add", length))
            pos += length
        else:
            assert op == 0x02
            offset, pos = read_uvarint(delta, pos)
            length, pos = read_uvarint(delta, pos)
            ops.append(("copy", offset, length))
    return ops


def _slice_edit(rng: random.Random, body: bytes, fraction: float) -> bytes:
    """``body`` with one slice of ``fraction`` of its bytes rewritten."""
    n = max(1, int(len(body) * fraction))
    at = rng.randrange(0, len(body) - n + 1)
    return body[:at] + rng.randbytes(n) + body[at + n :]


_SHAPES = (
    "identical",
    "empty_target",
    "empty_base",
    "shorter_than_block",
    "pure_prefix",
    "pure_suffix",
    "single_slice",
    "multi_slice",
)


def _shaped_pair(shape: str, base: bytes, seed: int) -> tuple[bytes, bytes]:
    rng = random.Random(seed)
    cut = rng.randrange(len(base) + 1)
    if shape == "identical":
        return base, base
    if shape == "empty_target":
        return base, b""
    if shape == "empty_base":
        return b"", base
    if shape == "shorter_than_block":
        return base, base[: rng.randrange(DEFAULT_BLOCK_SIZE)]
    if shape == "pure_prefix":  # only a head survives
        return base, base[:cut] + rng.randbytes(rng.randrange(1, 200))
    if shape == "pure_suffix":  # only a tail survives
        return base, rng.randbytes(rng.randrange(1, 200)) + base[cut:]
    if shape == "single_slice":
        return base, _slice_edit(rng, base, rng.uniform(0.01, 0.3))
    target = base
    for _ in range(rng.randrange(2, 5)):
        target = _slice_edit(rng, target, rng.uniform(0.01, 0.1))
    return base, target


@settings(max_examples=200)
@given(
    st.sampled_from(_SHAPES),
    st.binary(min_size=1, max_size=3000),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_shaped_roundtrip(shape, base, seed):
    base, target = _shaped_pair(shape, base, seed)
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target
    stats = delta_stats(base, target, delta)
    assert stats.copy_bytes + stats.add_bytes == len(target)


@pytest.mark.parametrize("size", [4, 63, 64, 65, 2048, 70_000])
def test_identical_is_one_copy(size):
    # (Below four bytes a COPY op is no shorter than the bytes themselves.)
    base = random_payload(size, seed=size)
    assert _ops(compute_delta(base, base)) == [("copy", 0, size)]


def test_single_slice_edit_ops_are_prefix_literal_suffix():
    base = random_payload(2048, seed=21)
    target = base[:700] + bytes(100) + base[800:]
    assert _ops(compute_delta(base, target)) == [
        ("copy", 0, 700), ("add", 100), ("copy", 800, 1248)
    ]


def test_short_shared_ends_fold_into_the_literal():
    # A COPY costs three bytes here; two shared bytes are cheaper as data.
    base = b"ab" + bytes(range(100, 160)) + b"yz"
    target = b"ab" + bytes(range(160, 220)) + b"yz"
    assert _ops(compute_delta(base, target)) == [("add", len(target))]


@settings(max_examples=150)
@given(
    st.integers(min_value=256, max_value=6000),
    st.floats(min_value=0.01, max_value=0.05),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_single_slice_never_larger_than_reference(size, fraction, seed):
    rng = random.Random(seed)
    base = rng.randbytes(size)
    target = _slice_edit(rng, base, fraction)
    delta = compute_delta(base, target)
    reference = _reference_compute_delta(base, target)
    assert apply_delta(base, delta) == target
    assert apply_delta(base, reference) == target  # same D1 format, both ways
    assert len(delta) <= len(reference)


def test_repeated_content_outside_the_middle_still_copies():
    """The block index covers the whole base, not only the trimmed middle."""
    base = random_payload(2048, seed=22)
    target = base[:1024] + base[:512] + base[1024:]
    delta = compute_delta(base, target)
    assert apply_delta(base, delta) == target
    assert len(delta) < 64


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=4096), st.integers(min_value=0, max_value=2**32))
@example(0, 0)
@example(3, 0)  # COPY(0, 3) is three bytes: the diff's literal instead
@example(4, 0)
@example(128, 0)  # a two-byte length
@example(4096, 0)
def test_property_identity_delta_is_the_diff_of_a_payload_with_itself(size, seed):
    """A newversion's delta is written from the length alone; it is the
    very bytes the diff would produce, at every size (the short ones
    take the diff's literal)."""
    content = random.Random(seed).randbytes(size)
    assert identity_delta(content) == compute_delta(content, content)
    assert apply_delta(content, identity_delta(content)) == content
