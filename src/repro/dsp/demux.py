"""Frequency demultiplexer (DEMUX) for the MF-TDMA multiplex.

The payload receives several FDM carriers per beam (Fig. 2: "DBFN +
DEMUX" feeding one demodulator per carrier).  Two implementations are
provided:

- :class:`DdcBank` -- one DDC per carrier (simple, flexible spacing);
- :class:`PolyphaseChannelizer` -- the classic critically-sampled
  M-branch polyphase/FFT channelizer for uniformly spaced carriers,
  which is how such DEMUXes are realized in hardware (M half-band/FIR
  branches + FFT), at 1/M the per-channel cost of the DDC bank.

Both return an (M, N/M) array of per-carrier baseband streams.

:func:`multiplex_carriers` is the ground-side MUX that builds the
multiplex the payload splits.  It is the synthesis dual of the
analysis channelizer: an inverse FFT across the channels, then M
polyphase branch filters of the interpolation prototype.  Synthesis
and analysis are the two polyphase/FFT halves of the Fig. 2 FDM link.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sp_fft

from ..caching import cached_design, freeze
from .filters import design_lowpass
from .nco import Ddc

__all__ = ["DdcBank", "PolyphaseChannelizer", "multiplex_carriers"]


@cached_design("dsp.mux_polyphase", maxsize=16)
def _synthesis_taps(m: int) -> np.ndarray:
    """``(taps, m)`` polyphase table of the scaled interpolation prototype:
    row ``j`` holds ``h[j*m + q]`` for ``q = 0..m-1``, zero past the end."""
    proto = design_lowpass(8 * m + 1, 0.5 / m * 0.8) * m
    taps = -(-len(proto) // m)
    table = np.zeros(taps * m)
    table[: len(proto)] = proto
    return freeze(table.reshape(taps, m))


def multiplex_carriers(baseband: np.ndarray, num_channels: int) -> np.ndarray:
    """Frequency-multiplex M equal-rate baseband streams into one wideband.

    ``baseband`` is (M, N); each stream is upsampled by M, filtered by
    the prototype ``h = design_lowpass(8M+1, 0.4/M)*M`` and shifted to
    its channel center ``k/M`` cycles/sample.  This is the synthesis
    counterpart used by tests and by the payload's Tx side, evaluated
    as the polyphase/FFT synthesis bank (the dual of
    :class:`PolyphaseChannelizer`):

    ``out[p*M + q] = sum_j h[j*M + q] * v[p - j, q]``,
    ``v = (M * ifft(baseband, axis=0)).T``,

    one inverse FFT across the channels, then one ``(N, M)``
    multiply-add per polyphase tap.  The result is the first ``N*M``
    samples of the summed per-channel ``fftconvolve`` filters, within
    ``1e-11`` of their peak magnitude (the sums reassociate, so it is
    not float-identical to that loop).
    """
    bb = np.asarray(baseband, dtype=np.complex128)
    if bb.ndim != 2 or bb.shape[0] != num_channels:
        raise ValueError(f"expected ({num_channels}, N) input, got {bb.shape}")
    m, n = bb.shape
    table = _synthesis_taps(m)
    # v[p, q] = sum_k bb[k, p] exp(2j pi k q / M): the unscaled inverse DFT
    v = sp_fft.ifft(bb.T, axis=1, norm="forward")
    out = v * table[0]
    for j in range(1, len(table)):
        out[j:] += v[:-j] * table[j]
    return out.reshape(-1)


class DdcBank:
    """Per-carrier DDC demultiplexer.

    ``centers`` are carrier frequencies in cycles/sample; all channels
    are decimated by ``decim``.
    """

    def __init__(self, centers: list[float], decim: int, num_taps: int = 127) -> None:
        if decim < 1:
            raise ValueError("decim must be >= 1")
        self.centers = list(centers)
        self.decim = decim
        self.ddcs = [Ddc(f, decim, num_taps) for f in self.centers]

    def process(self, x: np.ndarray) -> np.ndarray:
        """Split wideband input into (num_channels, N/decim) streams."""
        outs = [ddc.process(x) for ddc in self.ddcs]
        n = min(len(o) for o in outs)
        return np.vstack([o[:n] for o in outs])


class PolyphaseChannelizer:
    """Critically-sampled M-channel polyphase/FFT analysis channelizer.

    Channel ``k`` is centered at ``k/M`` cycles/sample and decimated by
    M.  The prototype filter is a windowed-sinc low-pass of bandwidth
    ``1/(2M)``; taps are striped across M polyphase branches and the
    branch outputs combined with an FFT per output sample -- the whole
    block is evaluated as one strided convolution + one batched FFT.
    """

    def __init__(self, num_channels: int, taps_per_branch: int = 16) -> None:
        if num_channels < 2:
            raise ValueError("need at least 2 channels")
        self.m = num_channels
        ntaps = num_channels * taps_per_branch
        proto = design_lowpass(ntaps + 1, 0.5 / num_channels * 0.8)[:-1]
        # branch p gets taps p, p+M, p+2M, ...
        self.branches = proto.reshape(taps_per_branch, num_channels).T.copy()
        self.taps_per_branch = taps_per_branch

    def process(self, x: np.ndarray) -> np.ndarray:
        """Channelize a block (length multiple of M) -> (M, N/M).

        Standard DFT-filter-bank analysis: channel ``k`` output is

        ``y_k[n] = sum_m h[m] x[nM - m] exp(+j 2 pi k m / M)``
        (down-conversion of the carrier at ``+k/M``; the ``exp(-j 2 pi k n)``
        factor is unity at the decimated instants),

        evaluated as M polyphase branch convolutions
        ``u_p[n] = sum_j h[p + jM] x[nM - p - jM]`` followed by a forward
        FFT across the branch index ``p``.
        """
        x = np.asarray(x, dtype=np.complex128)
        m = self.m
        if len(x) % m:
            raise ValueError(f"block length must be a multiple of M={m}")
        nout = len(x) // m
        if nout == 0:
            raise ValueError(f"empty block: need at least M={m} samples")
        xq = x.reshape(nout, m)  # xq[n, q] = x[n*M + q]
        # column p of the branch input: x[nM - p] = xq[n-1, m-p] for p>0
        cols = np.empty((nout, m), dtype=np.complex128)
        cols[:, 0] = xq[:, 0]
        cols[0, 1:] = 0.0
        cols[1:, 1:] = xq[:-1, :0:-1]  # reversed q = m-1 .. 1 -> p = 1 .. m-1
        # u_p[n] = sum_j h[p + jM] * cols[n - j, p]  (vectorized over p)
        t = self.taps_per_branch
        acc = np.zeros((nout, m), dtype=np.complex128)
        for j in range(t):
            h = self.branches[:, j]  # h[p + jM] for every p
            if j == 0:
                acc += cols * h
            else:
                acc[j:] += cols[:-j] * h
        y = np.fft.ifft(acc, axis=1) * m
        return np.ascontiguousarray(y.T)
