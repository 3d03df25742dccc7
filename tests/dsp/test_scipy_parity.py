"""The package's scipy-free numerics equal scipy's, bit for bit.

``src/`` needs only numpy at run time, yet its results must not move
from the scipy-built ones: the golden trace hashes hold FDIR margins
computed from ``erfcinv``, and every modem output passes through the
FFT filter.  So each replacement is pinned here with ``array_equal``
against the scipy routine it stands in for:

- :func:`repro.dsp.filters.next_fast_len` against
  ``scipy.fft.next_fast_len(n, False)`` (the FFT length, and with it
  every filtered sample);
- :mod:`repro.dsp.special` (ports of the Cephes ``erfc`` and
  ``ndtri``) against ``scipy.special`` on every branch of each.
"""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from repro.dsp.filters import next_fast_len
from repro.dsp.special import erfc, erfcinv, ndtri

pytestmark = pytest.mark.perf


def _same(f, ref, xs: np.ndarray) -> None:
    got = np.array([f(float(v)) for v in xs])
    np.testing.assert_array_equal(got, ref(xs))


def test_next_fast_len_matches_scipy():
    n = np.arange(1, 40_001)
    got = np.array([next_fast_len(int(k)) for k in n])
    want = np.array([scipy.fft.next_fast_len(int(k), False) for k in n])
    np.testing.assert_array_equal(got, want)


def test_next_fast_len_rejects_non_positive():
    with pytest.raises(ValueError):
        next_fast_len(0)


@pytest.mark.parametrize(
    "xs",
    [
        np.linspace(-27.0, 0.0, 40_001),  # x < 0: 2 - erfc(-x)
        np.linspace(-1.0, 1.0, 40_001),  # |x| < 1: 1 - erf(x)
        np.linspace(1.0, 8.0, 40_001, endpoint=False),  # P/Q rational
        np.linspace(8.0, 27.0, 40_001),  # R/S rational, then underflow
        np.array([0.0, -0.0, 1.0, -1.0, 8.0, 26.5, 26.6, 40.0, -40.0]),
        np.array([math.inf, -math.inf, math.nan]),
    ],
    ids=["negative", "central", "mid", "far", "edges", "non-finite"],
)
def test_erfc_matches_scipy(xs):
    _same(erfc, scipy.special.erfc, xs)


#: ``exp(-2)`` and ``exp(-32)``: where ``ndtri`` changes approximation
_EXPM2, _EXPM32 = math.exp(-2.0), math.exp(-32.0)


def _erfcinv_grid() -> np.ndarray:
    y = np.concatenate(
        [
            np.logspace(-300, math.log10(2.0), 100_001)[:-1],
            np.linspace(0.0, 2.0, 100_001)[1:-1],
            2.0 - np.logspace(-15.5, -0.5, 20_001),
            [np.nextafter(2.0, 0.0), 5e-324, 1e-310],
        ]
    )
    p = 0.5 * y
    # every ndtri branch, and the 1 - y reflection, is on the grid
    assert (p < _EXPM32).sum() > 1000  # far tail
    assert ((p >= _EXPM32) & (p < _EXPM2)).sum() > 1000  # tail
    assert ((p >= _EXPM2) & (p <= 1 - _EXPM2)).sum() > 1000  # central
    assert (p > 1 - _EXPM2).sum() > 1000  # reflected
    return y


def test_erfcinv_matches_scipy():
    _same(erfcinv, scipy.special.erfcinv, _erfcinv_grid())


def test_erfcinv_edges_match_scipy():
    _same(erfcinv, scipy.special.erfcinv, np.array([0.0, 2.0, -1.0, 2.5, math.nan]))


def test_ndtri_matches_scipy():
    p = np.concatenate([0.5 * _erfcinv_grid(), [0.0, 1.0, -0.5, 1.5, math.nan]])
    _same(ndtri, scipy.special.ndtri, p)
