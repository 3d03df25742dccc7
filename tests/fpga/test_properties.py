"""Property-based tests across the FPGA substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import Bitstream, Fpga
from repro.fpga.memory import OnboardMemory


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_bitstream_roundtrip_any_geometry(rows, cols, bpc, seed):
    rng = np.random.default_rng(seed)
    bs = Bitstream.random("f", rows, cols, bpc, rng)
    back = Bitstream.from_bytes(bs.to_bytes())
    np.testing.assert_array_equal(back.frames, bs.frames)
    assert back.crc32() == bs.crc32()


@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=0, max_size=64))
@settings(max_examples=40, deadline=None)
def test_upset_twice_restores_property(indices):
    """Flipping any multiset of bits twice restores the configuration."""
    fpga = Fpga(rows=8, cols=8, bits_per_clb=32)
    bs = Bitstream.random("f", 8, 8, 32, np.random.default_rng(0))
    fpga.configure(bs)
    idx = np.asarray(indices, dtype=np.int64)
    fpga.upset_bits(idx)
    fpga.upset_bits(idx)
    assert fpga.corrupted_bits() == 0


@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=1, max_size=64,
                unique=True))
@settings(max_examples=40, deadline=None)
def test_corrupted_bits_counts_unique_flips(indices):
    fpga = Fpga(rows=8, cols=8, bits_per_clb=32)
    bs = Bitstream.random("f", 8, 8, 32, np.random.default_rng(1))
    fpga.configure(bs)
    fpga.upset_bits(np.asarray(indices, dtype=np.int64))
    assert fpga.corrupted_bits() == len(indices)


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=30, deadline=None)
def test_memory_roundtrip_any_payload(payload):
    m = OnboardMemory(1 << 16)
    m.store("f", payload)
    assert m.load("f") == payload


@given(
    st.binary(min_size=10, max_size=120),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_memory_single_upset_always_corrected(payload, seed):
    """One flipped bit anywhere in the store is corrected on load."""
    m = OnboardMemory(1 << 16)
    m.store("f", payload)
    words = m._files["f"].words.reshape(-1)
    words[np.random.default_rng(seed).integers(words.size)] ^= 1
    assert m.load("f") == payload
