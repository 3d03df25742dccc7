"""Property tests: ``decode_batch`` is bit-identical to the scalar loop.

The batched burst-processing engine (docs/performance.md) promises that
batching is a pure throughput optimisation -- for every decoder the
batched kernel and a Python loop over the scalar ``decode`` must produce
*identical* bits, not merely equal BER.  These tests sweep block
lengths, code rates and batch sizes with seeded random LLRs, and pin the
two classic tie-sensitive corners:

- **all-erasure** input (all-zero LLRs): every path metric ties, so the
  result is defined purely by the kernel's tie-breaking order;
- **tied-metric** input (quantised LLRs in {-1, 0, +1}): many partial
  ties, exercising ``max``/``argmax`` ordering throughout the trellis.

A batched kernel with a different tie-break than the scalar one passes
random-noise tests with probability ~1 and fails only here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    UMTS_RATE_12,
    UMTS_RATE_13,
    CodingScheme,
    TransportChain,
    TurboCode,
)

CONV_CODES = {"rate12": UMTS_RATE_12, "rate13": UMTS_RATE_13}


def _noisy_llrs(code, rng, nb, nbits, snr=1.0):
    msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
    enc = np.stack([code.encode(m) for m in msgs])
    return (1.0 - 2.0 * enc) * snr + rng.standard_normal(enc.shape)


class TestConvBatchEquivalence:
    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    @pytest.mark.parametrize("nbits", [1, 5, 33, 64])
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_matches_scalar_loop(self, rate, nbits, nb):
        code = CONV_CODES[rate]
        import zlib

        rng = np.random.default_rng(zlib.crc32(f"{rate}:{nbits}:{nb}".encode()))
        llrs = _noisy_llrs(code, rng, nb, nbits)
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    def test_all_erasure(self, rate):
        """All-zero LLRs: every metric ties; tie-break must agree."""
        code = CONV_CODES[rate]
        nbits, nb = 24, 4
        llrs = np.zeros((nb, code.encoded_length(nbits) // code.n_out, code.n_out))
        llrs = llrs.reshape(nb, -1)
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("rate", sorted(CONV_CODES))
    def test_tied_metric_llrs(self, rate):
        """Quantised +-1/0 LLRs create systematic metric ties."""
        code = CONV_CODES[rate]
        nbits, nb = 40, 6
        rng = np.random.default_rng(1234)
        llrs = rng.integers(-1, 2, (nb, code.encoded_length(nbits))).astype(
            np.float64
        )
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nbits=st.integers(1, 80),
        nb=st.integers(1, 5),
    )
    def test_property_random_blocks(self, seed, nbits, nb):
        code = UMTS_RATE_13
        rng = np.random.default_rng(seed)
        llrs = _noisy_llrs(code, rng, nb, nbits)
        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        np.testing.assert_array_equal(batched, scalar)


class TestTurboBatchEquivalence:
    @pytest.mark.parametrize("k", [40, 64, 100])
    @pytest.mark.parametrize("nb", [1, 4])
    def test_matches_scalar_loop(self, k, nb):
        tc = TurboCode(k, iterations=3)
        rng = np.random.default_rng(k * 31 + nb)
        llrs = _noisy_llrs(tc, rng, nb, k, snr=2.0)
        np.testing.assert_array_equal(
            tc.decode_batch(llrs),
            np.stack([tc.decode(llrs[i]) for i in range(nb)]),
        )

    def test_all_erasure(self):
        tc = TurboCode(40, iterations=2)
        llrs = np.zeros((3, tc.encoded_length))
        np.testing.assert_array_equal(
            tc.decode_batch(llrs),
            np.stack([tc.decode(llrs[i]) for i in range(3)]),
        )

    def test_tied_metric_llrs(self):
        tc = TurboCode(48, iterations=3)
        rng = np.random.default_rng(99)
        llrs = rng.integers(-1, 2, (4, tc.encoded_length)).astype(np.float64)
        np.testing.assert_array_equal(
            tc.decode_batch(llrs),
            np.stack([tc.decode(llrs[i]) for i in range(4)]),
        )

    def test_iteration_traces_match(self):
        """return_iterations: per-iteration hard decisions also agree."""
        tc = TurboCode(40, iterations=3)
        rng = np.random.default_rng(5)
        llrs = _noisy_llrs(tc, rng, 2, 40, snr=0.7)
        _, batched_iters = tc.decode_batch(llrs, return_iterations=True)
        for i in range(2):
            _, scalar_iters = tc.decode(llrs[i], return_iterations=True)
            for bi, si in zip(batched_iters, scalar_iters):
                np.testing.assert_array_equal(np.asarray(bi)[i], np.asarray(si))


class TestTransportChainBatchEquivalence:
    @pytest.mark.parametrize("scheme", list(CodingScheme))
    @pytest.mark.parametrize("physical_bits", [None, 512])
    def test_matches_scalar_loop(self, scheme, physical_bits):
        chain = TransportChain(
            scheme,
            transport_block=100,
            physical_bits=physical_bits,
            turbo_iterations=3,
        )
        rng = np.random.default_rng(7 * (1 + list(CodingScheme).index(scheme)))
        nb = 3
        msgs = rng.integers(0, 2, (nb, 100)).astype(np.uint8)
        enc = np.stack([chain.encode(m) for m in msgs])
        llrs = (1.0 - 2.0 * enc) * 2.0 + 0.5 * rng.standard_normal(enc.shape)
        batched = chain.decode_batch(llrs)
        for i in range(nb):
            scalar = chain.decode(llrs[i])
            np.testing.assert_array_equal(batched["bits"][i], scalar["bits"])
            assert bool(batched["crc_ok"][i]) == bool(scalar["crc_ok"])
            assert scalar["crc_ok"], f"clean-channel block {i} failed CRC"
            np.testing.assert_array_equal(scalar["bits"], msgs[i])

    @pytest.mark.parametrize("scheme", list(CodingScheme), ids=lambda s: s.value)
    def test_empty_batch(self, scheme):
        chain = TransportChain(scheme, transport_block=24)
        out = chain.decode_batch(np.zeros((0, chain.physical_bits)))
        assert out["bits"].shape == (0, 24)
        assert out["crc_ok"].shape == (0,)

    def test_all_erasure(self):
        chain = TransportChain(
            CodingScheme.CONVOLUTIONAL, transport_block=50, physical_bits=512
        )
        llrs = np.zeros((2, 512))
        batched = chain.decode_batch(llrs)
        for i in range(2):
            scalar = chain.decode(llrs[i])
            np.testing.assert_array_equal(batched["bits"][i], scalar["bits"])
            assert bool(batched["crc_ok"][i]) == bool(scalar["crc_ok"])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("scheme", [CodingScheme.CONVOLUTIONAL, CodingScheme.TURBO])
    def test_non_finite_llr_fails_crc(self, scheme, value):
        """One non-finite LLR must not decode to a block that passes CRC.

        The max-based decoders turn it into NaN path metrics and an
        all-zero word, which the zero-init CRC would accept.
        """
        chain = TransportChain(scheme, transport_block=40)
        rng = np.random.default_rng(4)
        msgs = rng.integers(0, 2, (3, 40)).astype(np.uint8)
        enc = np.stack([chain.encode(m) for m in msgs])
        sigma = np.sqrt(0.5 / 10 ** 0.4)  # 4 dB Es/N0
        llrs = 2.0 * ((1.0 - 2.0 * enc) + sigma * rng.standard_normal(enc.shape)) / sigma**2
        llrs[1, 7] = value
        with np.errstate(invalid="ignore"):
            batched = chain.decode_batch(llrs)
            scalar = [chain.decode(row) for row in llrs]
        assert batched["crc_ok"].tolist() == [True, False, True]
        for i in (0, 2):
            np.testing.assert_array_equal(batched["bits"][i], msgs[i])
        for i, out in enumerate(scalar):
            np.testing.assert_array_equal(batched["bits"][i], out["bits"])
            assert bool(batched["crc_ok"][i]) == out["crc_ok"]


class TestModemBatchEquivalence:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_demod_batch_matches_rows(self, order):
        from repro.dsp.modem import PskModem

        m = PskModem(order)
        rng = np.random.default_rng(order)
        nb, nsym = 5, 32
        syms = (
            rng.standard_normal((nb, nsym)) + 1j * rng.standard_normal((nb, nsym))
        )
        hard = m.demodulate_hard(syms)
        soft = m.demodulate_soft(syms, noise_var=0.5)
        for i in range(nb):
            np.testing.assert_array_equal(hard[i], m.demodulate_hard(syms[i]))
            np.testing.assert_allclose(
                soft[i], m.demodulate_soft(syms[i], noise_var=0.5), rtol=1e-12
            )
