"""Tests for PSK modem, ADC/DAC models and link-budget helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.adc import Adc, Dac, quantize
from repro.dsp.modem import (
    PskModem,
    ber,
    count_bit_errors,
    ebn0_to_sigma,
    esn0_from_ebn0,
    theoretical_ber_bpsk,
)


class TestPskRoundtrip:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_modulate_demodulate_identity(self, order):
        rng = np.random.default_rng(0)
        m = PskModem(order)
        bits = rng.integers(0, 2, 120 * m.bits_per_symbol).astype(np.uint8)
        np.testing.assert_array_equal(m.demodulate_hard(m.modulate(bits)), bits)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_unit_energy(self, order):
        m = PskModem(order)
        assert np.allclose(np.abs(m.points), 1.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PskModem(3)

    def test_bit_count_must_divide(self):
        m = PskModem(4)
        with pytest.raises(ValueError):
            m.modulate(np.array([1, 0, 1], dtype=np.uint8))

    @pytest.mark.parametrize("order", [4, 8])
    def test_gray_mapping_adjacent_points_differ_one_bit(self, order):
        m = PskModem(order)
        angles = np.angle(m.points)
        idx_by_angle = np.argsort(angles)
        labels = m.labels[idx_by_angle]
        for i in range(order):
            a = labels[i]
            b = labels[(i + 1) % order]
            assert np.count_nonzero(a != b) == 1

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, nsym):
        rng = np.random.default_rng(nsym)
        m = PskModem(4)
        bits = rng.integers(0, 2, nsym * 2).astype(np.uint8)
        np.testing.assert_array_equal(m.demodulate_hard(m.modulate(bits)), bits)


class TestSoftDemapping:
    def test_llr_sign_matches_hard_decision(self):
        rng = np.random.default_rng(1)
        m = PskModem(4)
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        sym = m.modulate(bits)
        noisy = sym + 0.1 * (
            rng.standard_normal(len(sym)) + 1j * rng.standard_normal(len(sym))
        )
        llr = m.demodulate_soft(noisy, noise_var=0.02)
        hard_from_soft = (llr < 0).astype(np.uint8)
        np.testing.assert_array_equal(hard_from_soft, m.demodulate_hard(noisy))

    def test_llr_magnitude_scales_with_snr(self):
        m = PskModem(2)
        sym = m.modulate(np.array([0], dtype=np.uint8))
        llr_hi = m.demodulate_soft(sym, noise_var=0.01)
        llr_lo = m.demodulate_soft(sym, noise_var=1.0)
        assert llr_hi[0] > llr_lo[0] > 0

    def test_invalid_noise_var(self):
        m = PskModem(2)
        with pytest.raises(ValueError):
            m.demodulate_soft(np.array([1 + 0j]), noise_var=0.0)


class TestLinkBudget:
    def test_esn0_accounts_for_bits_and_rate(self):
        assert np.isclose(esn0_from_ebn0(4.0, 2, 0.5), 4.0)  # 2 bits * rate 1/2
        assert np.isclose(esn0_from_ebn0(4.0, 2, 1.0), 4.0 + 10 * np.log10(2))

    def test_sigma_produces_requested_ber_bpsk(self):
        """Monte-Carlo BER through ebn0_to_sigma must match theory."""
        rng = np.random.default_rng(7)
        m = PskModem(2)
        ebn0 = 6.0
        n = 200_000
        bits = rng.integers(0, 2, n).astype(np.uint8)
        sym = m.modulate(bits)
        sigma = ebn0_to_sigma(ebn0, 1)
        noisy = sym + sigma * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        measured = ber(bits, m.demodulate_hard(noisy))
        theory = theoretical_ber_bpsk(ebn0)
        assert 0.5 * theory < measured < 2.0 * theory

    def test_qpsk_matches_bpsk_per_bit(self):
        rng = np.random.default_rng(8)
        m = PskModem(4)
        ebn0 = 5.0
        n = 100_000
        bits = rng.integers(0, 2, 2 * n).astype(np.uint8)
        sym = m.modulate(bits)
        sigma = ebn0_to_sigma(ebn0, 2)
        noisy = sym + sigma * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        measured = ber(bits, m.demodulate_hard(noisy))
        theory = theoretical_ber_bpsk(ebn0)
        assert 0.5 * theory < measured < 2.0 * theory

    def test_count_bit_errors_validates_shape(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.zeros(3), np.zeros(4))

    def test_ber_empty_is_zero(self):
        assert ber(np.array([]), np.array([])) == 0.0


class TestQuantizer:
    def test_quantize_preserves_small_signals(self):
        x = np.linspace(-0.9, 0.9, 100)
        y = quantize(x, bits=12)
        assert np.max(np.abs(x - y)) < 2.0 / (1 << 12)

    def test_saturation(self):
        y = quantize(np.array([10.0, -10.0]), bits=4, full_scale=1.0)
        assert y[0] < 1.0 and y[1] >= -1.0

    def test_complex_rails_independent(self):
        z = np.array([0.3 + 0.7j])
        y = quantize(z, bits=8)
        assert abs(y[0].real - 0.3) < 0.01 and abs(y[0].imag - 0.7) < 0.01

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(4), bits=0)

    @given(st.integers(min_value=2, max_value=14))
    @settings(max_examples=20, deadline=None)
    def test_error_bounded_by_half_lsb_property(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.uniform(-0.99, 0.99, 200)
        y = quantize(x, bits=bits)
        lsb = 2.0 / (1 << bits)
        assert np.max(np.abs(x - y)) <= lsb  # within one LSB incl. edges

    def test_adc_measured_sqnr_close_to_theory(self):
        rng = np.random.default_rng(3)
        adc = Adc(bits=8)
        t = np.arange(100_000)
        x = 0.999 * np.sin(2 * np.pi * 0.01234 * t)
        y = adc.convert(x)
        noise = y - x
        sqnr = 10 * np.log10(np.mean(x**2) / np.mean(noise**2))
        # full-scale sine theory: 6.02 b + 1.76 dB
        assert abs(sqnr - (6.02 * adc.bits + 1.76)) < 1.5

    def test_dac_roundtrip(self):
        dac = Dac(bits=12)
        x = np.linspace(-0.5, 0.5, 64)
        assert np.max(np.abs(dac.convert(x) - x)) < 1e-3
