"""Tests for block interleaving, rate matching and the UMTS chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    BlockInterleaver,
    CodingScheme,
    SCHEMES,
    TransportChain,
    rate_dematch,
    rate_match,
)
from repro.coding.interleaving import UMTS_2ND_PERM
from repro.dsp.modem import ebn0_to_sigma


class TestBlockInterleaver:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        il = BlockInterleaver(30, UMTS_2ND_PERM)
        x = rng.integers(0, 2, 247).astype(np.uint8)
        np.testing.assert_array_equal(il.deinterleave(il.interleave(x)), x)

    def test_is_permutation(self):
        il = BlockInterleaver(30, UMTS_2ND_PERM)
        idx = il.indices(100)
        assert len(np.unique(idx)) == 100

    def test_identity_permutation_default(self):
        il = BlockInterleaver(4)
        x = np.arange(8)
        # row-major write, column-major read
        np.testing.assert_array_equal(il.interleave(x), [0, 4, 1, 5, 2, 6, 3, 7])

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockInterleaver(0)
        with pytest.raises(ValueError):
            BlockInterleaver(3, (0, 0, 1))

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_length_property(self, n):
        il = BlockInterleaver(30, UMTS_2ND_PERM)
        x = np.arange(n)
        np.testing.assert_array_equal(il.deinterleave(il.interleave(x)), x)


class TestRateMatching:
    def test_identity_when_sizes_match(self):
        x = np.arange(50)
        np.testing.assert_array_equal(rate_match(x, 50), x)

    def test_puncture_size(self):
        assert len(rate_match(np.arange(100), 80)) == 80

    def test_repeat_size(self):
        assert len(rate_match(np.arange(100), 130)) == 130

    def test_puncturing_even_spread(self):
        """Punctured positions must be spread, not clustered."""
        kept = rate_match(np.arange(100), 75)
        gaps = np.diff(kept)
        assert gaps.max() <= 3

    def test_dematch_restores_length(self):
        soft = np.ones(80)
        out = rate_dematch(soft, 100)
        assert len(out) == 100
        assert np.count_nonzero(out == 0) == 20  # erasures

    def test_dematch_combines_repeats(self):
        x = np.arange(10, dtype=float)
        tx = rate_match(x, 15)
        back = rate_dematch(np.ones(15), 10)
        # every position got at least one observation; repeats got 2
        assert back.min() >= 1.0
        assert back.sum() == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_match(np.array([]), 10)

    @given(
        st.integers(min_value=10, max_value=200),
        st.integers(min_value=10, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_sizes_always_exact_property(self, n_in, n_out):
        out = rate_match(np.arange(n_in), n_out)
        assert len(out) == n_out
        back = rate_dematch(np.ones(n_out), n_in)
        assert len(back) == n_in


class TestTransportChain:
    @pytest.mark.parametrize("scheme", list(CodingScheme))
    def test_clean_roundtrip(self, scheme):
        rng = np.random.default_rng(1)
        ch = TransportChain(scheme, transport_block=100)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        llr = (1.0 - 2.0 * ch.encode(bits)) * 5.0
        out = ch.decode(llr)
        np.testing.assert_array_equal(out["bits"], bits)
        assert out["crc_ok"] is True

    def test_crc_flags_corruption(self):
        rng = np.random.default_rng(2)
        ch = TransportChain(CodingScheme.NONE, transport_block=64)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        llr = (1.0 - 2.0 * ch.encode(bits)) * 5.0
        llr[5] = -llr[5]  # flip one uncoded bit
        out = ch.decode(llr)
        assert out["crc_ok"] is False

    def test_rate_matching_to_physical_bits(self):
        ch = TransportChain(
            CodingScheme.CONVOLUTIONAL, transport_block=100, physical_bits=300
        )
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        tx = ch.encode(bits)
        assert len(tx) == 300  # punctured from 372
        out = ch.decode((1.0 - 2.0 * tx) * 5.0)
        np.testing.assert_array_equal(out["bits"], bits)

    def test_no_crc_mode(self):
        ch = TransportChain(CodingScheme.NONE, transport_block=32, crc=None)
        bits = np.ones(32, dtype=np.uint8)
        out = ch.decode((1.0 - 2.0 * ch.encode(bits)) * 3.0)
        assert out["crc_ok"] is None
        np.testing.assert_array_equal(out["bits"], bits)

    def test_effective_rate_ordering(self):
        """Uncoded > convolutional ~ turbo in rate."""
        rates = {
            s: TransportChain(s, transport_block=200).effective_rate
            for s in CodingScheme
        }
        assert rates[CodingScheme.NONE] > rates[CodingScheme.CONVOLUTIONAL]
        assert rates[CodingScheme.NONE] > rates[CodingScheme.TURBO]

    def test_coded_beats_uncoded_at_low_snr(self):
        """The paper's QoS point: coding schemes trade rate for robustness."""
        rng = np.random.default_rng(4)
        ebn0 = 3.0
        results = {}
        for scheme in (CodingScheme.NONE, CodingScheme.CONVOLUTIONAL):
            ch = TransportChain(scheme, transport_block=200)
            sigma = ebn0_to_sigma(ebn0, 1, code_rate=ch.effective_rate)
            errors = 0
            for _ in range(10):
                bits = rng.integers(0, 2, 200).astype(np.uint8)
                x = 1.0 - 2.0 * ch.encode(bits).astype(float)
                y = x + sigma * rng.standard_normal(len(x))
                out = ch.decode(2 * y / sigma**2)
                errors += np.count_nonzero(out["bits"] != bits)
            results[scheme] = errors
        assert results[CodingScheme.CONVOLUTIONAL] < results[CodingScheme.NONE]

    def test_schemes_registry(self):
        assert set(SCHEMES) == set(CodingScheme)
        assert SCHEMES[CodingScheme.TURBO].nominal_rate == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportChain(CodingScheme.NONE, transport_block=0)
        ch = TransportChain(CodingScheme.NONE, transport_block=10)
        with pytest.raises(ValueError):
            ch.encode(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError):
            ch.decode(np.zeros(5))

    @pytest.mark.parametrize("scheme", list(CodingScheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("physical_bits", [0, -5])
    def test_physical_bits_validation(self, scheme, physical_bits):
        with pytest.raises(ValueError, match="physical_bits must be >= 1"):
            TransportChain(scheme, transport_block=40, physical_bits=physical_bits)

    @pytest.mark.parametrize("bad, good", [(23, 24), (5099, 5098)])
    def test_turbo_block_size_names_transport_block(self, bad, good):
        """transport_block + CRC-16 must fit the turbo interleaver's [40, 5114]."""
        with pytest.raises(ValueError, match="transport_block"):
            TransportChain(CodingScheme.TURBO, transport_block=bad)
        assert TransportChain(CodingScheme.TURBO, transport_block=good).turbo.k == good + 16
