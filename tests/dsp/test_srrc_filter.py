"""The shared SRRC filter is bit-exact with ``scipy.signal.fftconvolve``.

Every modem personality pulse-shapes and matched-filters through
:func:`repro.dsp.filters.srrc_filter`, which multiplies by a cached
pulse spectrum instead of transforming the pulse on every call.  These
tests pin that shortcut -- and the modem outputs built on it -- to the
``fftconvolve`` calls it replaced, kept here as the reference.  The
comparisons are exact: the cached spectrum is the one ``fftconvolve``
computes, so not even the last bit may move.
"""

import zlib

import numpy as np
import pytest
from scipy.signal import fftconvolve

from repro.caching import design_cache_stats
from repro.dsp.filters import srrc, srrc_filter, upsample
from repro.dsp.tdma import TdmaModem

pytestmark = pytest.mark.perf

#: (beta, sps, span) of the TDMA and CDMA modem defaults
PULSES = {"tdma": (0.35, 4, 8), "cdma": (0.22, 4, 8)}


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(":".join(map(str, parts)).encode()))


def _stack(rows: int, n: int, *parts) -> np.ndarray:
    rng = _rng(*parts)
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


# n starts at 2: fftconvolve broadcasts a length-1 axis instead of
# convolving along it, which is not the arithmetic any burst sees
@pytest.mark.parametrize("matched", [False, True], ids=["shape", "matched"])
@pytest.mark.parametrize("n", [2, 255, 256, 1601], ids=lambda n: f"n{n}")
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
