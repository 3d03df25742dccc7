"""The package's one FFT filter is bit-exact with ``scipy.signal.fftconvolve``.

Every FIR filter, the fractional delay and every modem personality's
pulse shaper and matched filter run through
:func:`repro.dsp.filters.fft_filter`; :func:`repro.dsp.filters.srrc_filter`
is its case with a cached pulse spectrum, so the pulse is not
transformed on every call.  These tests pin the helper, each call site
and the modem outputs built on it to the ``fftconvolve`` calls they
replaced, kept here as the reference.  The comparisons are exact: the
helper does ``fftconvolve``'s complex-path arithmetic, so not even the
last bit may move.
"""

import zlib

import numpy as np
import pytest
from scipy.signal import fftconvolve

from repro.caching import design_cache_stats
from repro.dsp.channel import apply_delay
from repro.dsp.filters import (
    FirFilter,
    PolyphaseDecimator,
    design_lowpass,
    fft_filter,
    fractional_delay_filter,
    srrc,
    srrc_filter,
    upsample,
)
from repro.dsp.tdma import TdmaModem

pytestmark = pytest.mark.perf

#: (beta, sps, span) of the TDMA and CDMA modem defaults
PULSES = {"tdma": (0.35, 4, 8), "cdma": (0.22, 4, 8)}


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(":".join(map(str, parts)).encode()))


def _stack(rows: int, n: int, *parts) -> np.ndarray:
    rng = _rng(*parts)
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


def _signal(n: int, *parts) -> np.ndarray:
    return _stack(1, n, *parts)[0]


def _same(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("taps_kind", ["real", "complex"])
@pytest.mark.parametrize("ntaps", [0, 1, 2, 9, 31, 127], ids=lambda k: f"taps{k}")
@pytest.mark.parametrize("n", [0, 1, 2, 31, 256, 1601, 4097], ids=lambda n: f"n{n}")
def test_fft_filter_matches_fftconvolve(n, ntaps, taps_kind):
    """Complex x real and complex x complex, including the edge cases:
    an empty operand, and a length-1 operand (a direct product)."""
    x = _signal(n, "fft_filter", n, ntaps, taps_kind)
    rng = _rng("taps", n, ntaps, taps_kind)
    taps = rng.standard_normal(ntaps)
    if taps_kind == "complex":
        taps = taps + 1j * rng.standard_normal(ntaps)
    _same(fft_filter(x, taps), fftconvolve(x, taps))


class TestSitesAgainstFftconvolve:
    """Each former ``fftconvolve`` site against the expression it held."""

    taps = design_lowpass(31, 0.2)

    def test_fir_process_in_chunks(self):
        fir = FirFilter(self.taps)
        tail = np.zeros(len(self.taps) - 1, dtype=np.complex128)
        for i, n in enumerate([1, 2, 97, 256, 33]):
            x = _signal(n, "chunk", i)
            buf = np.concatenate([tail, x])
            ref = fftconvolve(buf, self.taps, mode="full")[len(tail) : len(buf)]
            tail = buf[-len(tail) :].copy()
            _same(fir.process(x), ref)

    def test_fir_call(self):
        x = _signal(500, "call")
        ref = fftconvolve(x, self.taps, mode="full")[: len(x)]
        _same(FirFilter(self.taps)(x), ref)

    def test_polyphase_m1(self):
        x = _signal(256, "m1")
        ref = fftconvolve(x, self.taps, mode="full")[: len(x)]
        _same(PolyphaseDecimator(self.taps, 1).process(x), ref)

    @pytest.mark.parametrize("delay", [0.4, 3.25])
    def test_apply_delay_fractional(self, delay):
        x = _signal(300, "delay", delay)
        int_d = int(np.floor(delay))
        h = fractional_delay_filter(delay - int_d, 31)
        ref = fftconvolve(x, h, mode="full")[15 : 15 + len(x)]
        if int_d:
            ref = np.concatenate([np.zeros(int_d, dtype=ref.dtype), ref[:-int_d]])
        _same(apply_delay(x, delay), ref)


@pytest.mark.parametrize("matched", [False, True], ids=["shape", "matched"])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 1601], ids=lambda n: f"n{n}")
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("pulse", sorted(PULSES))
def test_matches_fftconvolve(pulse, rows, n, matched):
    beta, sps, span = PULSES[pulse]
    x = _stack(rows, n, pulse, rows, n, matched)
    taps = srrc(beta, sps, span)
    ref = fftconvolve(x, (taps[::-1] if matched else taps)[None, :], axes=1)
    got = srrc_filter(x, beta, sps, span, matched)
    assert got.shape == (rows, n + len(taps) - 1)
    np.testing.assert_array_equal(got, ref)


def test_rows_filter_independently():
    """A row of a stack filters exactly like that row alone."""
    beta, sps, span = PULSES["cdma"]
    x = _stack(3, 300, "rows")
    stacked = srrc_filter(x, beta, sps, span, True)
    for r in range(3):
        np.testing.assert_array_equal(
            stacked[r], srrc_filter(x[r : r + 1], beta, sps, span, True)[0]
        )


def test_spectrum_is_cached():
    beta, sps, span = PULSES["tdma"]
    x = _stack(2, 97, "cache")
    srrc_filter(x, beta, sps, span, False)
    before = design_cache_stats()["dsp.srrc_spectrum"]["hits"]
    srrc_filter(x, beta, sps, span, False)
    assert design_cache_stats()["dsp.srrc_spectrum"]["hits"] == before + 1


class TestModemsAgainstFftconvolve:
    """Modem outputs equal the chains built on ``fftconvolve``.

    ``CdmaModem.transmit_batch`` is pinned the same way in
    ``test_cdma_batch_equivalence.py::TestTransmitBatchEquivalence``.
    """

    def test_tdma_transmit_batch(self):
        modem = TdmaModem()
        bits = _rng("tdma-tx").integers(0, 2, (3, modem.bits_per_burst))
        bits = bits.astype(np.uint8)
        stack = modem.transmit_batch(bits)
        heads = np.concatenate([modem.preamble, modem.uw])
        for row, b in zip(stack, bits):
            symbols = np.concatenate([heads, modem.psk.modulate(b)])
            ref = fftconvolve(upsample(symbols, modem.sps), modem.pulse)
            np.testing.assert_array_equal(row, ref)
