"""FIR filter design and filtering primitives.

Implements the filtering blocks of the payload receive chain (Fig. 2):
half-band decimation filters after the ADC, and the square-root
raised-cosine (SRRC) matched filters feeding the demodulators.

All filtering is vectorized; the only state kept by streaming filters is
the tail of the previous block, so long signals can be processed in
chunks with bit-identical results to one-shot filtering.

The design functions (:func:`design_lowpass`, :func:`halfband`,
:func:`srrc`) are memoized in the process-wide design-cache registry
(:mod:`repro.caching`): constructing many modem/carrier personalities
with the same parameters re-uses one frozen (read-only) tap array
instead of re-deriving it.  Callers needing a private mutable copy do
``srrc(...).copy()``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..caching import cached_design, freeze

__all__ = [
    "FirFilter",
    "fft_filter",
    "design_lowpass",
    "halfband",
    "HalfBandDecimator",
    "srrc",
    "srrc_filter",
    "rc",
    "PolyphaseDecimator",
    "upsample",
    "fractional_delay_filter",
    "next_fast_len",
]


@cached_design("dsp.design_lowpass", maxsize=128)
def design_lowpass(num_taps: int, cutoff: float, window: str = "hamming") -> np.ndarray:
    """Windowed-sinc linear-phase low-pass FIR design (cached, read-only).

    Parameters
    ----------
    num_taps:
        Filter length (odd recommended for a symmetric type-I filter).
    cutoff:
        Normalized cutoff in cycles/sample, ``0 < cutoff < 0.5``.
    window:
        ``"hamming"``, ``"hann"``, ``"blackman"`` or ``"rect"``.
    """
    if not 0.0 < cutoff < 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5), got {cutoff}")
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * n)
    if window == "hamming":
        w = np.hamming(num_taps)
    elif window == "hann":
        w = np.hanning(num_taps)
    elif window == "blackman":
        w = np.blackman(num_taps)
    elif window == "rect":
        w = np.ones(num_taps)
    else:
        raise ValueError(f"unknown window {window!r}")
    h *= w
    h /= h.sum()  # unit DC gain
    return freeze(h)


@cached_design("dsp.halfband", maxsize=32)
def halfband(num_taps: int = 31, window: str = "hamming") -> np.ndarray:
    """Design a half-band low-pass filter (cutoff 0.25 cycles/sample).

    Every second coefficient (except the center) is exactly zero -- the
    property that makes half-band filters cheap in hardware, which is why
    the paper's front-end (Fig. 2) uses them after the ADC.  Cached,
    read-only.
    """
    if num_taps % 4 != 3:
        raise ValueError("half-band length must satisfy num_taps % 4 == 3 (e.g. 31)")
    h = design_lowpass(num_taps, 0.25, window=window).copy()
    # Force the exact half-band zero pattern (design gives ~1e-17 residue):
    # taps at even offsets from the center are zero, except the center.
    mid = (num_taps - 1) // 2
    offsets = np.arange(num_taps) - mid
    zero_mask = (offsets % 2 == 0) & (offsets != 0)
    h[zero_mask] = 0.0
    h /= h.sum()
    return freeze(h)


@cached_design("dsp.srrc", maxsize=64)
def srrc(beta: float, sps: int, span: int) -> np.ndarray:
    """Square-root raised-cosine pulse (unit energy, cached, read-only).

    Parameters
    ----------
    beta:
        Roll-off factor in ``(0, 1]``.
    sps:
        Samples per symbol.
    span:
        Pulse span in symbols (total length ``span * sps + 1``).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if sps < 2:
        raise ValueError("need at least 2 samples per symbol")
    n = np.arange(-span * sps // 2, span * sps // 2 + 1, dtype=float)
    t = n / sps
    h = np.empty_like(t)
    # generic expression
    denom = np.pi * t * (1.0 - (4.0 * beta * t) ** 2)
    num = np.sin(np.pi * t * (1.0 - beta)) + 4.0 * beta * t * np.cos(
        np.pi * t * (1.0 + beta)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        h = num / denom
    # singular points
    h[t == 0.0] = 1.0 - beta + 4.0 * beta / np.pi
    sing = np.isclose(np.abs(t), 1.0 / (4.0 * beta))
    if np.any(sing):
        h[sing] = (beta / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
        )
    h /= np.sqrt(np.sum(h * h))  # unit energy
    return freeze(h)


@lru_cache(maxsize=256)
def next_fast_len(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c * 7**d * 11**e >= n``: a length
    pocketfft transforms fast, and ``scipy.fft.next_fast_len(n, False)``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _fft(a: np.ndarray, nfft: int) -> np.ndarray:
    """``fft(a, nfft)`` along the last axis, equal bit for bit to
    ``scipy.fft.fft``: a real ``a`` is transformed as ``rfft`` plus the
    Hermitian fill of the negative frequencies, as scipy does (numpy's
    ``fft`` of a real array runs the complex transform, whose last bits
    differ)."""
    if np.iscomplexobj(a):
        return np.fft.fft(a, nfft)
    half = np.fft.rfft(a, nfft)
    out = np.empty(half.shape[:-1] + (nfft,), dtype=half.dtype)
    k = half.shape[-1]
    out[..., :k] = half
    # out[nfft - j] = conj(out[j]) for j = 1 .. nfft - k
    np.conjugate(half[..., nfft - k : 0 : -1], out=out[..., k:])
    return out


def fft_filter(x: np.ndarray, taps: np.ndarray, spectrum=None) -> np.ndarray:
    """Full convolution of ``x`` with 1-D ``taps`` along ``x``'s last axis.

    The one FFT-convolution path of the package: every FIR filter,
    the fractional delay and the SRRC pulse shaper and matched filter
    run through it.  It computes ``ifft(fft(x, nfft) * fft(taps,
    nfft))[..., :n]`` with ``n = x.shape[-1] + len(taps) - 1`` and
    ``nfft = next_fast_len(n)``, which is the complex path of
    ``scipy.signal.fftconvolve``: for a complex 1-D ``x`` the output
    is bit-identical to ``fftconvolve(x, taps)``, and a ``(C, n)``
    stack is filtered row by row as ``fftconvolve(x, taps[None, :],
    axes=1)`` would (a stack of no rows keeps its 2-D shape).  The
    edge cases match too: no samples or no taps give an empty (float)
    array, and a length-1 operand gives the direct product
    ``x * taps``.  The transforms are ``numpy.fft``'s (see :func:`_fft`).

    ``spectrum``, if given, maps ``nfft`` to ``fft(taps, nfft)``: a
    cached design, so the taps are not transformed on every call.
    """
    m = x.shape[-1]
    if m == 0 or len(taps) == 0:
        return np.asarray([])
    if m == 1 or len(taps) == 1:
        return x * taps
    n = m + len(taps) - 1
    nfft = next_fast_len(n)
    buf = _fft(x, nfft)
    buf *= _fft(taps, nfft) if spectrum is None else spectrum(nfft)
    return np.fft.ifft(buf, axis=-1, out=buf)[..., :n]


@cached_design("dsp.srrc_spectrum", maxsize=32)
def _srrc_spectrum(
    beta: float, sps: int, span: int, nfft: int, matched: bool
) -> np.ndarray:
    """Length-``nfft`` spectrum of the SRRC pulse (``matched``: of its
    time reverse): the FFT of the *real* taps that :func:`fft_filter`
    would otherwise compute on every call."""
    taps = srrc(beta, sps, span)
    return freeze(_fft(taps[::-1] if matched else taps, nfft))


def srrc_filter(
    x: np.ndarray, beta: float, sps: int, span: int, matched: bool
) -> np.ndarray:
    """Full convolution of a ``(C, n)`` stack with the SRRC pulse.

    The pulse shaper (``matched=False``) and the matched filter
    (``matched=True``: the time-reversed pulse) of every modem
    personality.  It is :func:`fft_filter` with the pulse spectrum
    taken from the ``dsp.srrc_spectrum`` design cache: each row is
    filtered along axis 1, two FFTs per call instead of three, and
    the output equals ``fft_filter(x, pulse)`` bit for bit.
    """
    taps = srrc(beta, sps, span)
    return fft_filter(
        x,
        taps[::-1] if matched else taps,
        lambda nfft: _srrc_spectrum(beta, sps, span, nfft, matched),
    )


def rc(beta: float, sps: int, span: int) -> np.ndarray:
    """Raised-cosine pulse (the cascade SRRC*SRRC), unit peak."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    n = np.arange(-span * sps // 2, span * sps // 2 + 1, dtype=float)
    t = n / sps
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.sinc(t) * np.cos(np.pi * beta * t) / (1.0 - (2.0 * beta * t) ** 2)
    sing = np.isclose(np.abs(t), 1.0 / (2.0 * beta))
    if np.any(sing):
        h[sing] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))
    h[t == 0.0] = 1.0
    return h


def upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Insert ``factor - 1`` zeros between samples (impulse-train upsampling)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return np.asarray(x).copy()
    x = np.asarray(x)
    out = np.zeros(len(x) * factor, dtype=x.dtype)
    out[::factor] = x
    return out


def fractional_delay_filter(delay: float, num_taps: int = 31) -> np.ndarray:
    """Windowed-sinc fractional-delay FIR.

    ``delay`` is in samples and may be non-integer; the filter's group
    delay is ``(num_taps - 1) / 2 + delay``.
    """
    n = np.arange(num_taps) - (num_taps - 1) / 2.0 - delay
    h = np.sinc(n) * np.hamming(num_taps)
    h /= h.sum()
    return h


class FirFilter:
    """Streaming FIR filter with overlap state.

    ``process`` may be called repeatedly on consecutive chunks; the
    concatenated output equals filtering the concatenated input.  The
    output of each call has the same length as its input (the filter's
    transient appears at the very start of the stream).
    """

    def __init__(self, taps: np.ndarray) -> None:
        taps = np.asarray(taps, dtype=np.result_type(taps, np.float64))
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        self.taps = taps
        self._tail = np.zeros(len(taps) - 1, dtype=np.complex128)

    @property
    def group_delay(self) -> float:
        """Group delay in samples for the linear-phase case."""
        return (len(self.taps) - 1) / 2.0

    def reset(self) -> None:
        """Clear streaming state."""
        self._tail[:] = 0.0

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter one chunk, maintaining continuity with previous chunks."""
        x = np.asarray(x, dtype=np.complex128)
        buf = np.concatenate([self._tail, x])
        y = fft_filter(buf, self.taps)
        ntail = len(self.taps) - 1
        out = y[ntail : ntail + len(x)]
        if ntail:
            self._tail = buf[-ntail:].copy()
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """One-shot filtering (same-length output), without touching state."""
        x = np.asarray(x, dtype=np.complex128)
        return fft_filter(x, self.taps)[: len(x)]


class HalfBandDecimator:
    """Half-band filter + decimate-by-2, the Fig. 2 front-end block."""

    def __init__(self, num_taps: int = 31) -> None:
        self.fir = FirFilter(halfband(num_taps))
        self._phase = 0  # which input phase the next output sample aligns to

    def reset(self) -> None:
        self.fir.reset()
        self._phase = 0

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter and keep every second sample (streaming-consistent)."""
        y = self.fir.process(x)
        out = y[self._phase :: 2]
        self._phase = (self._phase - len(x)) % 2
        return out


class PolyphaseDecimator:
    """Decimate by ``m`` through an ``m``-branch polyphase FIR.

    Mathematically identical to filter-then-downsample, at 1/m the
    cost; used by the channelizer (:mod:`repro.dsp.demux`).  The output
    is ``y[i] = sum_j taps[j] * x[i*m - j]``; splitting the tap index
    as ``j = p + q*m`` (branch ``p`` holds ``taps[p::m]``) gives

    - branch 0 convolving the phase-0 substream ``x[0::m]``, and
    - branch ``p >= 1`` convolving ``x[m-p::m]`` delayed by one output
      sample,

    so every branch runs at the *output* rate -- no full-rate
    convolution anywhere.
    """

    def __init__(self, taps: np.ndarray, m: int) -> None:
        if m < 1:
            raise ValueError("decimation factor must be >= 1")
        taps = np.asarray(taps, dtype=np.float64)
        self.m = m
        pad = (-len(taps)) % m
        taps = np.concatenate([taps, np.zeros(pad)])
        # branch k holds taps[k::m]
        self.branches = taps.reshape(-1, m).T.copy()
        self.taps = taps

    def process(self, x: np.ndarray) -> np.ndarray:
        """One-shot decimation of a block whose length is a multiple of m."""
        x = np.asarray(x, dtype=np.complex128)
        m = self.m
        if len(x) % m:
            raise ValueError(f"block length must be a multiple of m={m}")
        n_out = len(x) // m
        if n_out == 0:
            return np.zeros(0, dtype=np.complex128)
        if m == 1:
            return fft_filter(x, self.taps)[: len(x)]
        y = np.convolve(x[0::m], self.branches[0])[:n_out]
        for p in range(1, m):
            # x[i*m - p - q*m] = x[(i-1-q)*m + (m-p)]: the phase-(m-p)
            # substream, one output sample late
            y[1:] += np.convolve(x[m - p :: m], self.branches[p])[: n_out - 1]
        return y
