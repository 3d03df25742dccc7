"""Tests for FIR design and filtering primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.filters import (
    FirFilter,
    HalfBandDecimator,
    PolyphaseDecimator,
    design_lowpass,
    fractional_delay_filter,
    halfband,
    rc,
    srrc,
    upsample,
)


class TestDesignLowpass:
    def test_unit_dc_gain(self):
        h = design_lowpass(63, 0.2)
        assert np.isclose(h.sum(), 1.0)

    def test_symmetric_linear_phase(self):
        h = design_lowpass(63, 0.2)
        np.testing.assert_allclose(h, h[::-1], atol=1e-15)

    def test_stopband_attenuation(self):
        h = design_lowpass(101, 0.1)
        w = np.fft.rfftfreq(4096)
        H = np.abs(np.fft.rfft(h, 4096))
        stop = H[w > 0.18]
        assert stop.max() < 10 ** (-40 / 20)  # > 40 dB attenuation

    @pytest.mark.parametrize("cutoff", [0.0, 0.5, 0.7, -0.1])
    def test_invalid_cutoff(self, cutoff):
        with pytest.raises(ValueError):
            design_lowpass(31, cutoff)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            design_lowpass(31, 0.2, window="kaiser-nope")


class TestHalfband:
    def test_zero_pattern(self):
        h = halfband(31)
        mid = 15
        for i in range(31):
            if i != mid and (i - mid) % 2 == 0:
                assert h[i] == 0.0, f"tap {i} should be zero"

    def test_center_tap_half(self):
        h = halfband(31)
        assert np.isclose(h[15], 0.5, atol=0.02)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            halfband(32)

    def test_decimator_removes_out_of_band(self):
        rng = np.random.default_rng(0)
        n = 4096
        t = np.arange(n)
        inband = np.exp(2j * np.pi * 0.05 * t)
        outband = np.exp(2j * np.pi * 0.45 * t)
        dec = HalfBandDecimator(31)
        y_in = dec.process(inband)
        dec2 = HalfBandDecimator(31)
        y_out = dec2.process(outband)
        p_in = np.mean(np.abs(y_in[100:]) ** 2)
        p_out = np.mean(np.abs(y_out[100:]) ** 2)
        assert p_in > 0.9
        assert p_out < 1e-3

    def test_streaming_matches_oneshot(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        dec_a = HalfBandDecimator(31)
        y_once = dec_a.process(x)
        dec_b = HalfBandDecimator(31)
        parts = [dec_b.process(x[:333]), dec_b.process(x[333:700]), dec_b.process(x[700:])]
        y_stream = np.concatenate(parts)
        np.testing.assert_allclose(y_stream, y_once, atol=1e-9)


class TestSrrc:
    def test_unit_energy(self):
        h = srrc(0.35, 4, 8)
        assert np.isclose(np.sum(h * h), 1.0)

    def test_symmetric(self):
        h = srrc(0.22, 4, 10)
        np.testing.assert_allclose(h, h[::-1], atol=1e-12)

    def test_cascade_is_nyquist(self):
        """SRRC * SRRC must have zero ISI at symbol spacing."""
        sps = 4
        h = srrc(0.35, sps, 10)
        g = np.convolve(h, h)
        center = len(g) // 2
        taps_at_symbols = g[center % sps :: sps]
        peak = g[center]
        others = taps_at_symbols[np.abs(taps_at_symbols - peak) > 1e-9]
        assert np.all(np.abs(others) < 0.01 * peak)

    def test_singularity_handled(self):
        # t = 1/(4 beta) lands exactly on a sample for beta=0.25, sps=4
        h = srrc(0.25, 4, 8)
        assert np.all(np.isfinite(h))

    @pytest.mark.parametrize("beta", [0.0, 1.5, -0.2])
    def test_invalid_beta(self, beta):
        with pytest.raises(ValueError):
            srrc(beta, 4, 8)

    def test_rc_zero_isi_directly(self):
        sps = 8
        h = rc(0.35, sps, 12)
        center = len(h) // 2
        for k in range(1, 5):
            assert abs(h[center + k * sps]) < 1e-9
        assert h[center] == 1.0

    def test_rc_singularity(self):
        h = rc(0.5, 4, 8)
        assert np.all(np.isfinite(h))


class TestFirFilter:
    def test_streaming_equals_oneshot(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        taps = design_lowpass(41, 0.2)
        f1 = FirFilter(taps)
        y1 = f1.process(x)
        f2 = FirFilter(taps)
        y2 = np.concatenate([f2.process(c) for c in np.split(x, [100, 101, 350])])
        np.testing.assert_allclose(y1, y2, atol=1e-10)

    def test_impulse_response_recovered(self):
        taps = design_lowpass(21, 0.3)
        f = FirFilter(taps)
        x = np.zeros(40)
        x[0] = 1.0
        y = f.process(x)
        np.testing.assert_allclose(y[:21].real, taps, atol=1e-12)

    def test_reset_clears_state(self):
        taps = design_lowpass(21, 0.3)
        f = FirFilter(taps)
        f.process(np.ones(50))
        f.reset()
        y = f.process(np.zeros(30))
        np.testing.assert_allclose(y, 0.0, atol=1e-15)

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            FirFilter(np.array([]))

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_chunking_invariance_property(self, split):
        rng = np.random.default_rng(split)
        x = rng.standard_normal(64)
        taps = design_lowpass(9, 0.25)
        whole = FirFilter(taps).process(x)
        f = FirFilter(taps)
        cut = 8 * split
        chunked = np.concatenate([f.process(x[:cut]), f.process(x[cut:])])
        np.testing.assert_allclose(chunked, whole, atol=1e-10)


class TestUpsampleAndDelay:
    def test_upsample_places_zeros(self):
        y = upsample(np.array([1.0, 2.0]), 3)
        np.testing.assert_array_equal(y, [1, 0, 0, 2, 0, 0])

    def test_upsample_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(upsample(x, 1), x)

    def test_upsample_invalid(self):
        with pytest.raises(ValueError):
            upsample(np.arange(4), 0)

    def test_fractional_delay_delays(self):
        n = 256
        t = np.arange(n)
        x = np.sin(2 * np.pi * 0.02 * t)
        h = fractional_delay_filter(0.5, 31)
        y = np.convolve(x, h)[15 : 15 + n]
        expected = np.sin(2 * np.pi * 0.02 * (t - 0.5))
        np.testing.assert_allclose(y[20:-20], expected[20:-20], atol=5e-3)


class TestPolyphaseDecimator:
    def test_matches_filter_then_downsample(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(240) + 1j * rng.standard_normal(240)
        taps = design_lowpass(33, 0.1)
        m = 4
        pd = PolyphaseDecimator(taps, m)
        y = pd.process(x)
        from scipy.signal import fftconvolve

        ref = fftconvolve(x, taps, mode="full")[: len(x) : m]
        np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_bad_block_length(self):
        pd = PolyphaseDecimator(design_lowpass(9, 0.2), 4)
        with pytest.raises(ValueError):
            pd.process(np.zeros(10))

    @pytest.mark.parametrize("m,ntaps", [(2, 15), (3, 31), (5, 33)])
    def test_matches_reference_for_various_m(self, m, ntaps):
        rng = np.random.default_rng(11 + m)
        n = 60 * m
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = design_lowpass(ntaps, 0.8 / (2 * m))
        from scipy.signal import fftconvolve

        ref = fftconvolve(x, taps, mode="full")[: len(x) : m]
        got = PolyphaseDecimator(taps, m).process(x)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_no_full_rate_convolution(self, monkeypatch):
        """Regression: the m>=2 path must never filter at the input rate.

        The polyphase identity means each branch convolves a
        decimated-by-m stream with ~ntaps/m taps.  The old
        implementation convolved the full-rate input with the full
        filter (``fftconvolve(x, taps)``) and threw away m-1 of every m
        outputs.  Verified two ways: (a) the module's full-rate FFT
        filter ``fft_filter`` is never called, (b) every
        ``np.convolve`` operand is at the decimated rate.
        """
        import repro.dsp.filters as filters_mod

        def _boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("full-rate fft_filter called for m >= 2")

        lengths = []
        real_convolve = np.convolve

        def _spy(a, v, mode="full"):
            lengths.append(max(len(np.atleast_1d(a)), len(np.atleast_1d(v))))
            return real_convolve(a, v, mode)

        rng = np.random.default_rng(7)
        m = 4
        x = rng.standard_normal(240) + 1j * rng.standard_normal(240)
        taps = design_lowpass(33, 0.1)
        pd = PolyphaseDecimator(taps, m)

        monkeypatch.setattr(filters_mod, "fft_filter", _boom)
        monkeypatch.setattr(np, "convolve", _spy)
        y = pd.process(x)

        monkeypatch.undo()
        from scipy.signal import fftconvolve

        ref = fftconvolve(x, taps, mode="full")[: len(x) : m]
        np.testing.assert_allclose(y, ref, atol=1e-10)
        assert lengths, "expected the branch path to use np.convolve"
        # every convolution operand is at the decimated rate
        assert max(lengths) <= len(x) // m

    def test_m1_passthrough_filters_full_rate(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        taps = design_lowpass(9, 0.2)
        from scipy.signal import fftconvolve

        ref = fftconvolve(x, taps, mode="full")[: len(x)]
        np.testing.assert_allclose(
            PolyphaseDecimator(taps, 1).process(x), ref, atol=1e-10
        )
