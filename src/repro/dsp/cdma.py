"""CDMA modem personality: spreading, acquisition, tracking, despreading.

Implements the left-hand side of the paper's Fig. 3.  A CDMA modem
differs from the TDMA one by three blocks -- **acquisition** of the
spreading-code phase (the serial-search scheme of De Gaudenzi et al.
[7]), **code tracking** (the non-coherent early-late DLL of De Gaudenzi
et al. [8]) and the **despreader** -- which replace the TDMA timing
recovery.  Everything downstream ("to carrier recovery") is shared.

The S-UMTS numbers from the paper are available as defaults: a chip rate
of 2.048 Mcps carrying user rates up to 144/384 kbps, i.e. spreading
factors of 2**2 .. 2**8.

Batched return-link engine
--------------------------
The CDMA return link is the payload's *multi-user* direction, so every
kernel here is batch-first and the scalar entry points are views of the
batched ones (the PR-4 discipline: scalar delegates to batched, so
batched == scalar *by construction*):

- acquisition (:func:`_noncoherent_stats`) correlates a stack of user
  codes against shared chip samples, or one code against a stack of
  bursts, in one reshape + axis-FFT pass using cached
  ``conj(fft(code))`` tables; :func:`acquire` is its one-row view;
- every despread is a **chip sum**: with a whole number ``sps`` of
  samples per chip, all chips of one strobe share the interpolation
  fraction ``f`` of its start ``b + f``, so the linear-interpolated
  despread is ``((1 - f) D[b] + f D[b + 1]) / sf`` with
  ``D[m] = sum_j x[m + j sps] c_j`` -- the integrate-and-dump of a
  hardware correlator at one sampling phase.  ``Dll`` rejects any
  other ``sps``;
- :class:`Dll` tracking runs through :func:`_block_dll_track`, which
  forms only the early and late correlators, as one ``(B, 2, 2, sf)``
  gather and one reduction per symbol, batched across bursts/users;
  the prompt symbols are one despread at the recorded strobes;
- the settled (``gain=0``) despread grid is fully deterministic: one
  base and one fraction per row, so each interpolator tap's chips are
  a strided ``(nsym, sf)`` view of the row and the whole burst is two
  reductions (:func:`_settled_despread`);
- :meth:`CdmaModem.receive_batch` demodulates a ``(B, nsamples)`` stack
  of bursts and :class:`CdmaReturnBank` demodulates U code-multiplexed
  users from one composite waveform, both through the same engine
  (:func:`_return_link_engine`), emitting ``perf.cdma.*`` metric series
  (metrics only, never trace events).

All despread reductions use numpy's pairwise last-axis sum rather than
a BLAS matvec, ``matmul`` or ``einsum``: the pairwise blocking depends
only on ``sf``, so results are bit-identical for any leading batch
shape -- which the batched == scalar contract requires (BLAS kernels
pick accumulation order by operand shape).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Optional, Sequence

import numpy as np

from ..caching import array_cache_key, cached_design, freeze
from ..obs.probes import probe
from .filters import srrc, srrc_filter
from .modem import PskModem, estimate_snr_m2m4
from .carrier import carrier_lock_metric
from .tdma import BurstSyncError
from .timing import HISTORY_MAXLEN

__all__ = [
    "m_sequence",
    "gold_code",
    "ovsf_code",
    "spread",
    "despread",
    "acquire",
    "AcquisitionResult",
    "mean_acquisition_time",
    "Dll",
    "CdmaConfig",
    "CdmaModem",
    "CdmaReturnBank",
]

# Primitive polynomial feedback taps (Fibonacci LFSR) by register degree.
_PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 2),
    6: (6, 1),
    7: (7, 1),
    8: (8, 6, 5, 4),
    9: (9, 4),
    10: (10, 3),
    11: (11, 2),
}

# Preferred-pair second taps for Gold construction (verified to meet the
# Gold cross-correlation bound against the _PRIMITIVE_TAPS sequence).
_GOLD_PAIR_TAPS: dict[int, tuple[int, ...]] = {
    5: (5, 4, 3, 2),
    6: (6, 5),
    7: (7, 3),
    9: (9, 6, 4, 3),
    10: (10, 8, 3, 2),
    11: (11, 8, 5, 2),
}

#: distinct members of the degree-9 Gold family a return bank spreads
#: its users over (:meth:`CdmaReturnBank.for_users`)
_GOLD_FAMILY = (1 << 9) - 1


def _lfsr_output_bits(degree: int, taps: tuple[int, ...]) -> np.ndarray:
    """Output bits (0/1) of the all-ones-seeded Fibonacci LFSR, vectorized.

    The register's output obeys the linear recurrence

        ``out[i] = XOR_{t in taps} out[i - t]``    for ``i >= degree``,

    with the first ``degree`` outputs equal to the seed (all ones): the
    feedback bit needs ``degree`` shifts to reach the output stage.
    Rather than stepping the register one chip at a time, the sequence
    is generated in chunks bounded by the *second*-smallest tap
    distance; the smallest distance ``s`` is resolved inside each chunk
    by a cumulative XOR along the ``s`` interleaved lanes (for ``s = 1``
    that is a plain prefix-XOR).
    """
    length = (1 << degree) - 1
    out = np.empty(length, dtype=np.uint8)
    out[: min(degree, length)] = 1
    if length <= degree:
        return out
    dists = sorted(set(int(t) for t in taps))
    if not dists or dists[0] < 1 or dists[-1] > degree:
        raise ValueError(f"taps must be register positions in [1, {degree}]")
    s, rest = dists[0], dists[1:]
    # chunk bound: every non-smallest tap reaches at least chunk chips back
    chunk = rest[0] if rest else s
    i = degree
    while i < length:
        c = min(chunk, length - i)
        if rest:
            g = out[i - rest[0] : i - rest[0] + c].copy()
            for t in rest[1:]:
                g ^= out[i - t : i - t + c]
        else:
            g = np.zeros(c, dtype=np.uint8)
        # resolve out[j] = out[j - s] ^ g[j] along the s interleaved lanes
        for r in range(min(s, c)):
            lane = g[r::s].copy()
            np.bitwise_xor.accumulate(lane, out=lane)
            out[i + r : i + c : s] = lane ^ out[i + r - s]
        i += c
    return out


@cached_design("cdma.m_sequence", maxsize=64)
def _m_sequence_table(degree: int, taps: tuple[int, ...]) -> np.ndarray:
    bits = _lfsr_output_bits(degree, taps)
    return freeze((1 - 2 * bits.astype(np.int64)).astype(np.int8))  # 0->+1, 1->-1


def m_sequence(degree: int, taps: Optional[tuple[int, ...]] = None) -> np.ndarray:
    """Maximal-length sequence of length ``2**degree - 1`` in +-1 chips.

    ``taps`` are the LFSR feedback taps (1-indexed register positions);
    defaults to a known primitive polynomial for the degree.  The
    returned array is a cached **frozen** design table (copy before
    mutating).
    """
    if taps is None:
        if degree not in _PRIMITIVE_TAPS:
            raise ValueError(f"no default primitive polynomial for degree {degree}")
        taps = _PRIMITIVE_TAPS[degree]
    return _m_sequence_table(int(degree), tuple(int(t) for t in taps))


@cached_design("cdma.gold_code", maxsize=128)
def _gold_code_table(degree: int, shift: int) -> np.ndarray:
    a = m_sequence(degree)
    b = m_sequence(degree, _GOLD_PAIR_TAPS[degree])
    return freeze((a * np.roll(b, shift)).astype(np.int8))


def gold_code(degree: int, shift: int = 0) -> np.ndarray:
    """Gold code from the preferred pair of m-sequences for ``degree``.

    ``shift`` selects the family member: the second sequence is cyclically
    shifted by ``shift`` before chip-wise multiplication (XOR in bipolar).
    Returns a cached frozen design table.
    """
    if degree not in _GOLD_PAIR_TAPS:
        raise ValueError(f"no preferred pair stored for degree {degree}")
    return _gold_code_table(int(degree), int(shift))


@cached_design("cdma.ovsf_code", maxsize=256)
def _ovsf_code_table(sf: int, index: int) -> np.ndarray:
    code = np.array([1], dtype=np.int8)
    bits = int(np.log2(sf))
    for level in range(bits):
        bit = (index >> (bits - 1 - level)) & 1
        if bit:
            code = np.concatenate([code, -code])
        else:
            code = np.concatenate([code, code])
    return freeze(code)


def ovsf_code(sf: int, index: int) -> np.ndarray:
    """UMTS OVSF (Walsh-Hadamard ordered by tree) channelization code.

    ``sf`` must be a power of two; ``0 <= index < sf``.  Codes of equal
    SF are mutually orthogonal.  Returns a cached frozen design table.
    """
    if sf < 1 or sf & (sf - 1):
        raise ValueError("sf must be a power of two")
    if not 0 <= index < sf:
        raise ValueError(f"index must be in [0, {sf})")
    return _ovsf_code_table(int(sf), int(index))


@cached_design("cdma.spreading_code", maxsize=128)
def _spreading_code_table(sf: int, code_index: int, scrambling_shift: int) -> np.ndarray:
    chan = ovsf_code(sf, code_index % sf).astype(np.float64)
    scram = gold_code(9, scrambling_shift)[:sf].astype(np.float64)
    return freeze(chan * scram)


@cached_design("cdma.acq_code_fft", maxsize=256)
def _acq_code_fft_table(key: tuple) -> np.ndarray:
    shape, dtype, raw = key
    code = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return freeze(np.conj(np.fft.fft(code, shape[-1])))


def _acq_code_fft(code: np.ndarray) -> np.ndarray:
    """Cached ``conj(fft(code))`` acquisition table for a +-1 code."""
    return _acq_code_fft_table(array_cache_key(np.asarray(code, dtype=np.float64)))


def spread(symbols: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Spread symbols by a +-1 chip code (one code period per symbol)."""
    symbols = np.asarray(symbols)
    code = np.asarray(code, dtype=np.float64)
    return (symbols[:, None] * code[None, :]).ravel()


def despread(chips: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Integrate-and-dump despreading (inverse of :func:`spread`).

    ``chips`` length must be a multiple of the code length.  Output
    symbols are normalized by the spreading factor.
    """
    chips = np.asarray(chips)
    code = np.asarray(code, dtype=np.float64)
    sf = len(code)
    if len(chips) % sf:
        raise ValueError(f"chip count {len(chips)} not a multiple of SF {sf}")
    blocks = chips.reshape(-1, sf)
    return blocks @ code / sf


@dataclass
class AcquisitionResult:
    """Outcome of a code-phase search."""

    phase: int  # detected code phase, chips
    metric: float  # peak decision statistic
    mean_level: float  # mean off-peak statistic (noise floor)
    detected: bool  # metric exceeded threshold * mean_level
    statistics: np.ndarray = field(repr=False)  # full per-phase statistic


def _result_from_stat(stat: np.ndarray, threshold: float) -> AcquisitionResult:
    """CFAR-style normalized peak test on one per-phase statistic row."""
    phase = int(np.argmax(stat))
    peak = float(stat[phase])
    off = np.delete(stat, phase)
    mean_level = float(off.mean()) if len(off) else 0.0
    detected = peak > threshold * max(mean_level, 1e-30)
    return AcquisitionResult(
        phase=phase,
        metric=peak,
        mean_level=mean_level,
        detected=detected,
        statistics=stat,
    )


def _noncoherent_stats(
    rx_rows: np.ndarray, codes: np.ndarray, coherent_symbols: int
) -> np.ndarray:
    """Per-phase acquisition statistics for rows x codes, one FFT pass.

    ``rx_rows`` is ``(R, >= K*sf)`` chip-rate sample rows and ``codes``
    ``(U, sf)``; either ``R == 1`` (one shared composite, U user codes)
    or ``U == 1`` (a stack of bursts, one code).  Returns the
    ``(max(R, U), sf)`` non-coherently averaged squared correlation --
    the ``coherent_symbols`` loop of the scalar search becomes a
    reshape plus one axis FFT over all code periods at once.
    """
    k = coherent_symbols
    sf = codes.shape[-1]
    segs = rx_rows[:, : k * sf].reshape(rx_rows.shape[0], k, sf)
    seg_f = np.fft.fft(segs, axis=-1)  # (R, K, sf)
    cfs = np.stack([_acq_code_fft(c) for c in codes])  # (U, sf)
    corr = np.fft.ifft(seg_f[:, None, :, :] * cfs[None, :, None, :], axis=-1)
    stat = (np.abs(corr) ** 2).sum(axis=-2) / (k * sf * sf)  # (R, U, sf)
    return stat.reshape(-1, sf)


def acquire(
    rx_chips: np.ndarray,
    code: np.ndarray,
    threshold: float = 3.0,
    coherent_symbols: int = 1,
) -> AcquisitionResult:
    """Serial-search code acquisition (parallelized via FFT correlation).

    Following the signature-code acquisition approach of [7], the
    decision statistic for each candidate phase is the non-coherently
    averaged squared correlation over ``coherent_symbols`` consecutive
    code periods, which makes the search robust to data modulation and
    carrier phase.  Detection compares the peak to ``threshold`` times
    the mean off-peak level (a CFAR-style normalized test).

    A one-row view of the return-link engine's search
    (:func:`_noncoherent_stats`), so scalar and banked searches agree
    by construction.
    """
    code = np.asarray(code, dtype=np.float64)
    rx = np.asarray(rx_chips, dtype=np.complex128)
    if rx.ndim != 1:
        raise ValueError("acquire expects one 1-D chip stream")
    if len(rx) < len(code) * coherent_symbols:
        raise ValueError("need at least coherent_symbols code periods of chips")
    stat = _noncoherent_stats(rx[None, :], code[None, :], coherent_symbols)[0]
    return _result_from_stat(stat, threshold)


def mean_acquisition_time(
    pd: float, pfa: float, cells: int, dwell: float, penalty: float
) -> float:
    """Mean serial-search acquisition time (single-dwell model).

    Standard result for a straight serial search over ``cells`` code
    phases with detection probability ``pd``, false-alarm probability
    ``pfa`` per cell, dwell time ``dwell`` and false-alarm penalty
    ``penalty`` (both in seconds):

    ``T = (2 + (2 - pd) * (cells - 1) * (1 + pfa * penalty/dwell)) * dwell / (2 * pd)``
    """
    if not 0.0 < pd <= 1.0:
        raise ValueError("pd must be in (0, 1]")
    if not 0.0 <= pfa < 1.0:
        raise ValueError("pfa must be in [0, 1)")
    k = 1.0 + pfa * penalty / dwell
    return (2.0 + (2.0 - pd) * (cells - 1) * k) * dwell / (2.0 * pd)


# ---------------------------------------------------------------------------
# batched despread kernels
# ---------------------------------------------------------------------------


def _whole_sps(sps: int) -> int:
    """``sps`` as an ``int``: the chip-sum kernels need whole samples/chip."""
    if isinstance(sps, (bool, np.bool_)) or not isinstance(sps, (int, np.integer)):
        raise ValueError(
            f"sps must be a whole number of samples per chip, got {sps!r}"
        )
    return int(sps)


def _chip_taps(sf: int, sps: int) -> np.ndarray:
    """``(2, sf)`` offsets ``t + j sps`` of the two interpolator taps."""
    return np.arange(2)[:, None] + np.arange(sf) * sps


def _check_strobe_span(lo: int, hi: int, n: int) -> None:
    """Reject a strobe span ``[lo, hi]`` that leaves an ``n``-sample buffer."""
    if lo < 0 or hi > n - 1:
        raise ValueError(
            f"chip strobe span [{lo}, {hi}] runs outside the "
            f"{n}-sample buffer (burst truncated, or code timing ran "
            "off the end of the signal)"
        )


def _interp_despread(
    x: np.ndarray, codes: np.ndarray, starts: np.ndarray, sps: int
) -> np.ndarray:
    """Linear-interpolated chip-strobe despreading at a grid of starts.

    ``x`` is either a shared ``(n,)`` sample stream or a ``(B, n)``
    stack whose rows align with ``starts``'s leading axis.  ``starts``
    is any-shaped strobe start positions (samples); ``codes`` is a
    shared ``(sf,)`` code or per-row ``(B, sf)`` codes.  Returns one
    despread symbol per start, shape ``starts.shape``.

    With an integer ``sps`` every chip of one strobe shares the
    fraction ``f`` of its start ``b + f``, so the despread is the
    two-tap interpolation ``((1 - f) D[b] + f D[b + 1]) / sf`` of the
    chip sums ``D[m] = sum_j x[m + j sps] c_j``.  The whole grid is one
    ``(..., 2, sf)`` gather and one reduction against the code.  The
    required sample span is validated **up front**: a strobe grid
    running off either end of the buffer raises instead of silently
    duplicating the edge sample into the correlation (which corrupts
    the despread symbol -- the old ``clip`` behaviour).
    """
    starts = np.asarray(starts, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    sf = codes.shape[-1]
    base = np.floor(starts)
    frac = starts - base
    base = base.astype(np.int64)
    if base.size:
        # the last chip's interpolator reads its base + 1 tap
        _check_strobe_span(
            int(base.min()), int(base.max()) + (sf - 1) * sps + 1, x.shape[-1]
        )
    idx = base[..., None, None] + _chip_taps(sf, sps)  # (..., 2, sf)
    if x.ndim == 1:
        chips = x[idx]
    else:
        rows = np.arange(x.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
        chips = x[rows, idx]
    if codes.ndim > 1:
        codes = codes.reshape(codes.shape[:1] + (1,) * starts.ndim + (sf,))
    # pairwise last-axis reduction: bit-identical for any batch shape
    d = (chips * codes).sum(axis=-1)
    return ((1.0 - frac) * d[..., 0] + frac * d[..., 1]) / sf


def _settled_despread(
    x: np.ndarray,
    codes: np.ndarray,
    starts: np.ndarray,
    num_symbols: int,
    sps: int,
    sf: int,
) -> np.ndarray:
    """Despread whole bursts on a settled (deterministic) strobe grid.

    With the loop gain at zero the strobes of row ``r`` sit at
    ``starts[r] + k sf sps``: one base ``b`` and one fraction ``f`` per
    row.  Each interpolator tap's ``(num_symbols, sf)`` chip matrix is
    then a strided view ``row[b + t :: sps]``, so the whole burst is
    two reductions with no index arrays.  ``x`` is a shared ``(n,)``
    stream or a ``(B, n)`` stack; returns ``(B, num_symbols)`` symbols.
    """
    starts = np.asarray(starts, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    base = np.floor(starts)
    frac = starts - base
    base = base.astype(np.int64)
    span = sf * sps
    if base.size and num_symbols:
        _check_strobe_span(
            int(base.min()),
            int(base.max()) + num_symbols * span - sps + 1,
            x.shape[-1],
        )
    out = np.empty((len(starts), num_symbols), dtype=np.complex128)
    for r, (b, f) in enumerate(zip(base.tolist(), frac.tolist())):
        row = x if x.ndim == 1 else x[r]
        code = codes if codes.ndim == 1 else codes[r]
        # one strided (num_symbols, sf) chip view per interpolator tap;
        # pairwise last-axis reduction: bit-identical for any batch shape
        d0, d1 = (
            (row[t : t + num_symbols * span : sps].reshape(-1, sf) * code).sum(axis=-1)
            for t in (b, b + 1)
        )
        out[r] = ((1.0 - f) * d0 + f * d1) / sf
    return out


def _block_dll_track(
    x: np.ndarray,
    codes: np.ndarray,
    starts: np.ndarray,
    base_refs: np.ndarray,
    num_symbols: int,
    sps: int,
    sf: int,
    gain: float,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Early-late DLL tracking for a block of bursts in lock-step.

    ``x`` is shared ``(n,)`` samples or a ``(B, n)`` stack; ``starts``
    the ``(B,)`` initial strobe positions (timing estimate included)
    and ``base_refs`` the ``(B,)`` reference positions the timing-error
    trajectory is measured against.  Per symbol only the early and late
    correlators are formed, as chip sums at one sampling phase: one
    ``floor`` of the ``(B, 2)`` strobe starts, one ``(B, 2, 2, sf)``
    gather and one reduction; only the loop recursion itself stays
    serial in time.  Returns ``(strobes (B, num_symbols), tau_path
    (num_symbols, B))``: the prompt strobe position of every symbol
    and the timing-error trajectory.
    """
    nb = len(starts)
    half = delta * sps / 2.0
    span = sf * sps
    n = x.shape[-1]
    pos = np.asarray(starts, dtype=np.float64).copy()
    base = np.asarray(base_refs, dtype=np.float64)
    offsets = np.array([-half, half])
    # gather offsets into the flattened samples by row, interpolator tap
    # and chip; adding the (B, 2) early/late bases gives the
    # (B, 2, 2, sf) index
    taps = _chip_taps(sf, sps)
    if x.ndim == 2:
        taps = np.arange(nb)[:, None, None, None] * n + taps
    flat = x.reshape(-1)
    code = codes if codes.ndim == 1 else codes[:, None, None, :]
    track = np.empty((num_symbols + 1, nb))
    track[0] = pos
    for k in range(num_symbols):
        el = pos[:, None] + offsets  # (B, 2): early, late
        b = np.floor(el)
        f = el - b
        # a strobe off its row reads a wrong sample here, and the span
        # check after the loop rejects the whole track
        chips = flat.take(b.astype(np.int64)[:, :, None, None] + taps, mode="clip")
        # pairwise last-axis reduction: bit-identical for any batch shape
        d = (chips * code).sum(axis=-1)
        p = np.abs(((1.0 - f) * d[..., 0] + f * d[..., 1]) / sf) ** 2
        p_e, p_l = p[:, 0], p[:, 1]
        norm = p_e + p_l
        # late stronger => strobe is early => advance the position
        err = np.divide(p_l - p_e, norm, out=np.zeros(nb), where=norm > 1e-30)
        pos += gain * err * sps + span
        track[k + 1] = pos
    strobes = track[:-1]
    if num_symbols and nb:
        # the first symbol whose early or late strobe left the buffer
        b = np.floor(strobes[:, :, None] + offsets).astype(np.int64)
        lo = b.min(axis=(1, 2))
        hi = b.max(axis=(1, 2)) + (sf - 1) * sps + 1
        bad = np.flatnonzero((lo < 0) | (hi > n - 1))
        if len(bad):
            _check_strobe_span(int(lo[bad[0]]), int(hi[bad[0]]), n)
    steps = np.arange(1, num_symbols + 1)[:, None] * span
    return strobes.T, track[1:] - base - steps


class Dll:
    """Non-coherent early-late delay-locked loop (chip timing tracking).

    Implements the band-limited DS-SS chip-timing recovery of [8]: for
    every symbol, early and late despread correlations offset by
    +-``delta/2`` chips are formed on the oversampled signal, and the
    normalized power difference drives a 1st-order loop that slews the
    sampling phase.  :meth:`process` runs through the block kernels
    (:func:`_block_dll_track` / :func:`_settled_despread`) with a
    one-burst batch, so scalar and batched tracking agree by
    construction; with ``gain > 0`` the prompt symbols are one despread
    at the strobes the loop took.  ``sps`` must be a whole number of
    samples per chip (``ValueError`` otherwise).
    """

    def __init__(
        self,
        code: np.ndarray,
        sps: int = 4,
        delta: float = 1.0,
        gain: float = 0.1,
    ) -> None:
        sps = _whole_sps(sps)
        if sps < 2:
            raise ValueError("DLL needs >= 2 samples/chip")
        if not 0.0 < delta <= 2.0:
            raise ValueError("early-late spacing must be in (0, 2] chips")
        self.code = np.asarray(code, dtype=np.float64)
        self.sf = len(self.code)
        self.sps = sps
        self.delta = delta
        self.gain = gain
        self.tau = 0.0  # timing error estimate, samples
        # bounded ring buffer: long-running return links used to leak
        # one float per symbol forever (see repro.dsp.timing.HISTORY_MAXLEN)
        self.tau_history: deque[float] = deque(maxlen=HISTORY_MAXLEN)

    def process(self, x: np.ndarray, start: float, num_symbols: int) -> np.ndarray:
        """Track and despread ``num_symbols`` symbols.

        ``x`` is the matched-filtered signal at ``sps`` samples per chip;
        ``start`` is the (acquisition-provided) position of the first
        chip in samples.  Returns the despread symbol stream.
        """
        x = np.asarray(x, dtype=np.complex128)
        if self.gain == 0.0:
            # settled loop: the strobe grid is a deterministic affine
            # grid, two strided chip-sum reductions for the whole burst
            out = _settled_despread(
                x,
                self.code,
                np.array([start + self.tau]),
                num_symbols,
                self.sps,
                self.sf,
            )[0]
            self.tau_history.extend([float(self.tau)] * num_symbols)
            return out
        strobes, tau_path = _block_dll_track(
            x,
            self.code,
            np.array([start + self.tau]),
            np.array([float(start)]),
            num_symbols,
            self.sps,
            self.sf,
            self.gain,
            self.delta,
        )
        self.tau_history.extend(float(v) for v in tau_path[:, 0])
        if num_symbols:
            self.tau = float(tau_path[-1, 0])
        # the prompt despread at every strobe the loop took
        return _interp_despread(x, self.code, strobes[0], self.sps)


@dataclass(frozen=True)
class CdmaConfig:
    """Parameters of the CDMA modem personality (paper defaults: S-UMTS)."""

    sf: int = 16  # spreading factor, chips/symbol
    code_index: int = 1  # OVSF branch
    scrambling_shift: int = 0  # gold-scrambler family member
    chip_sps: int = 4  # samples per chip
    beta: float = 0.22  # SRRC roll-off (UMTS value)
    span: int = 8  # SRRC span, chips
    modulation: int = 4  # QPSK
    chip_rate_hz: float = 2.048e6  # paper: 2.048 Mcps

    def spreading_code(self) -> np.ndarray:
        """Composite +-1 spreading code: OVSF channelization x Gold scrambling.

        As in UMTS, an orthogonal channelization code separates users of
        one cell while a pseudo-random scrambling overlay gives the
        composite code the sharp (thumbtack) autocorrelation that the
        acquisition search of [7] relies on.  Returns a cached frozen
        design table.
        """
        return _spreading_code_table(
            int(self.sf), int(self.code_index), int(self.scrambling_shift)
        )


# ---------------------------------------------------------------------------
# batched return-link engine
# ---------------------------------------------------------------------------


def _strobe_padding(sf: int, sps: int, num_symbols: int, gain: float) -> int:
    """Zero-padding that keeps every legitimate strobe inside the buffer.

    A burst acquired at a late code phase (up to ``sf - 1`` chips) plus
    the DLL's worst-case slew (``gain`` samples-per-symbol bound), the
    late correlator offset and the interpolator's ``base + 1`` tap can
    legitimately strobe past the matched filter's tail.  Those samples
    are pure filter ringing; padding with zeros preserves the
    correlation instead of duplicating the edge sample, and anything
    *beyond* the padding is a genuinely truncated burst, which the
    despread kernel rejects loudly.
    """
    return int(np.ceil((sf + 2) * sps + gain * sps * num_symbols)) + 2


def _check_num_bits(num_bits: int, psk: PskModem) -> None:
    """Reject a burst payload that is negative or not whole symbols."""
    if num_bits < 0:
        raise ValueError(f"num_bits must be >= 0, got {num_bits}")
    if num_bits % psk.bits_per_symbol:
        raise ValueError(
            f"num_bits {num_bits} is not a multiple of "
            f"{psk.bits_per_symbol} bits per symbol"
        )


#: bytes of the block :func:`_raise_heap_thresholds` frees: above the
#: few MB the return link has in flight per composite
_HEAP_BLOCK = 4 << 20


@cache
def _raise_heap_thresholds() -> None:
    """Allocate and free one untouched 4 MiB block, once per process.

    Each return-link composite mallocs and frees several ~330 KB blocks
    (the two that every ``numpy.fft`` call makes, its twiddle table and
    work array, and the matched-filter and zero-padded arrays).  glibc
    raises its mmap threshold to the largest mmapped block freed so far
    and its heap-trim threshold to twice that.  Below those thresholds
    the heap is trimmed after each composite and its pages are faulted
    back in on the next: about 385 minor faults per composite, against
    0-2 per 100 composites after this free.  The block is never
    written, so it costs no pages; other allocators ignore it.
    """
    np.empty(_HEAP_BLOCK, dtype=np.uint8)


#: return-link DLL loop gain and early/late spacing (chips), and the
#: acquisition detection threshold (peak over mean correlation level)
_DLL_GAIN = 0.1
_DLL_DELTA = 1.0
_ACQ_THRESHOLD = 3.0


def _return_link_engine(
    mf: np.ndarray,
    codes: np.ndarray,
    psk: PskModem,
    pilot: np.ndarray,
    sps: int,
    num_bits: int,
    group_delay: int,
) -> list[dict]:
    """Shared batched demodulation chain over matched-filtered samples.

    ``mf`` is either one shared composite row (``(n,)``, U users
    code-multiplexed onto it) or a ``(B, n)`` stack of independent
    bursts; ``codes`` is correspondingly ``(U, sf)`` per-user codes or
    one shared ``(sf,)`` code.  Acquisition, DLL tracking and the
    settled despread all run through the batched kernels; the per-row
    outputs and diagnostics are identical to the scalar chain by
    construction (the scalar chain *is* this engine with one row).
    Raises ``ValueError`` for a negative ``num_bits`` or one that is
    not a whole number of symbols.
    """
    _check_num_bits(num_bits, psk)
    codes2 = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    sf = codes2.shape[-1]
    shared_mf = mf.ndim == 1
    mfrows = mf[None, :] if shared_mf else mf
    rows = max(mfrows.shape[0], codes2.shape[0])
    npil = len(pilot)
    nsym = npil + num_bits // psk.bits_per_symbol

    # Acquisition at chip rate on the first code periods.
    k = min(8, nsym)
    if mfrows.shape[1] < group_delay + k * sf * sps:
        raise ValueError("burst shorter than the acquisition window")
    chip_samples = mfrows[:, group_delay : group_delay + k * sf * sps : sps]
    stats = _noncoherent_stats(chip_samples, codes2, k)
    acqs = [_result_from_stat(stats[r], _ACQ_THRESHOLD) for r in range(rows)]
    starts = group_delay + np.array([a.phase for a in acqs], np.float64) * sps

    # Zero-pad the filter tail so late code phases stay despreadable.
    pad = _strobe_padding(sf, sps, nsym, _DLL_GAIN)
    mfp = np.concatenate(
        [mfrows, np.zeros((mfrows.shape[0], pad), dtype=mfrows.dtype)], axis=1
    )
    xk = mfp[0] if shared_mf else mfp
    track_codes = codes2[0] if codes2.shape[0] == 1 else codes2

    # Two-pass tracking: let the DLL pull in any residual (sub-chip)
    # timing error over the burst, then despread the whole burst at the
    # settled timing so the pilot symbols are clean too.
    _, tau_path = _block_dll_track(
        xk, track_codes, starts, starts, nsym, sps, sf, _DLL_GAIN, _DLL_DELTA
    )
    symbols = _settled_despread(
        xk, track_codes, starts + tau_path[-1], nsym, sps, sf
    )  # (rows, nsym)

    # carrier phase from the pilot (data-aided); code phase ambiguity
    # may rotate QPSK -- the pilot resolves it.
    rot = np.sum(symbols[:, :npil] * np.conj(pilot)[None, :], axis=1)
    phases = np.angle(rot)
    data = symbols[:, npil:] * np.exp(-1j * phases)[:, None]
    bits = psk.demodulate_hard(data)[:, :num_bits]

    # per-burst health diagnostics consumed by repro.robustness.fdir, one
    # call each over the (rows, ndata) stack (row r equals the 1-D call
    # on row r); a burst too short to measure reports None
    ndata = data.shape[1]
    locks = carrier_lock_metric(data, psk.order).tolist() if ndata else [None] * rows
    snrs = estimate_snr_m2m4(data).tolist() if ndata >= 8 else [None] * rows
    out = []
    for r in range(rows):
        acq = acqs[r]
        out.append(
            {
                "bits": bits[r],
                "symbols": data[r],
                "acquisition": acq,
                "phase": float(phases[r]),
                "dll_tau": tau_path[-HISTORY_MAXLEN:, r].copy(),
                "acq_metric": float(acq.metric / max(acq.mean_level, 1e-30)),
                "carrier_lock": locks[r],
                "snr_db": snrs[r],
            }
        )
    return out


def _count_cdma_metrics(mode: str, sf: int, bursts: int, bits: int) -> None:
    """``perf.cdma.*`` series -- metrics only, never trace events, so
    batched runs keep scenario trace hashes identical to scalar ones."""
    p = probe("perf.cdma", mode=mode, sf=str(sf))
    if p is not None:
        p.count("batches")
        p.count("bursts", bursts)
        p.count("bits", bursts * bits)


class CdmaModem:
    """Full CDMA transmit/receive chain (Fig. 3, left branch).

    Transmit: bits -> PSK symbols -> spread -> SRRC chip shaping.
    Receive: SRRC matched filter -> acquisition [7] -> DLL tracking [8]
    -> despread -> data-aided carrier phase (on a pilot preamble) ->
    demap.  :meth:`receive` delegates to :meth:`receive_batch` with a
    one-burst stack, so scalar and batched demodulation agree by
    construction.
    """

    #: number of known pilot symbols prepended to every burst
    PILOT_SYMBOLS = 16
    #: payload bits of one burst when the caller names no count
    bits_per_burst = 128

    def __init__(self, config: CdmaConfig | None = None) -> None:
        self.config = config or CdmaConfig()
        self.code = self.config.spreading_code()
        self.psk = PskModem(self.config.modulation)
        self._srrc = (self.config.beta, self.config.chip_sps, self.config.span)
        self.pulse = srrc(*self._srrc)
        pilot_bits = np.resize(
            np.array([0, 1, 1, 0], dtype=np.uint8),
            self.PILOT_SYMBOLS * self.psk.bits_per_symbol,
        )
        self.pilot = freeze(self.psk.modulate(pilot_bits))
        _raise_heap_thresholds()

    # -- transmit -------------------------------------------------------
    def transmit(self, bits: np.ndarray) -> np.ndarray:
        """Modulate, spread and pulse-shape a bit burst.

        A one-row view of :meth:`transmit_batch`.
        """
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        return self.transmit_batch(bits[None, :])[0]

    def transmit_batch(self, bits: np.ndarray) -> np.ndarray:
        """Build a ``(B, num_tx_samples(n))`` stack of bursts in one pass.

        Row ``r`` is the burst :meth:`transmit` builds from ``bits[r]``:
        one stacked PSK map, one spread of ``[pilot | data]`` by the
        spreading code and one axis-1 SRRC convolution.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError(f"expected a (B, nbits) bit stack, got shape {bits.shape}")
        rows, nbits = bits.shape
        _check_num_bits(nbits, self.psk)
        if not rows:
            return np.zeros((0, self.num_tx_samples(nbits)), dtype=np.complex128)
        data = self.psk.modulate(bits).reshape(rows, -1)
        pilot = np.broadcast_to(self.pilot, (rows, len(self.pilot)))
        symbols = np.concatenate([pilot, data], axis=1)
        chips = (symbols[:, :, None] * self.code[None, None, :]).reshape(rows, -1)
        sps = self.config.chip_sps
        x = np.zeros((rows, chips.shape[1] * sps), dtype=chips.dtype)
        x[:, ::sps] = chips
        return srrc_filter(x, *self._srrc, matched=False)

    def num_tx_samples(self, num_bits: int) -> int:
        """Length of :meth:`transmit` output for ``num_bits`` input bits."""
        nsym = self.PILOT_SYMBOLS + num_bits // self.psk.bits_per_symbol
        return nsym * self.config.sf * self.config.chip_sps + len(self.pulse) - 1

    # -- receive ----------------------------------------------------------
    def receive(self, samples: np.ndarray, num_bits: int | None = None) -> dict:
        """Demodulate a burst produced by :meth:`transmit` (plus channel).

        Returns a dict with ``bits`` (hard decisions), ``symbols``
        (despread, de-rotated), ``acquisition`` (:class:`AcquisitionResult`),
        ``phase`` (estimated carrier phase), ``dll_tau`` trajectory and
        the FDIR health diagnostics ``acq_metric``, ``carrier_lock``
        (``None`` with no payload symbols) and ``snr_db`` (``None``
        below 8 payload symbols).
        ``num_bits`` defaults to :attr:`bits_per_burst`.  A one-row
        view of :meth:`receive_batch`; raises :class:`BurstSyncError`
        for a burst with non-finite samples.
        """
        res = self.receive_batch(
            np.asarray(samples, dtype=np.complex128)[None, :], num_bits
        )[0]
        if isinstance(res, BurstSyncError):
            raise res
        return res

    def receive_batch(
        self, samples: np.ndarray, num_bits: int | None = None
    ) -> list[dict | BurstSyncError]:
        """Demodulate a ``(B, nsamples)`` stack of bursts in one pass.

        The multi-burst hot path: the SRRC matched filter runs as one
        batched convolution, acquisition as one reshape + axis-FFT over
        every burst's code periods, the early-late DLL in ``B``-wide
        lock-step on chip sums, and the settled despread as two strided
        chip-sum reductions per burst.  Returns one entry per burst:
        the :meth:`receive` result dict, bit-identical to
        :meth:`receive` on that row, or the :class:`BurstSyncError` of
        a row with non-finite samples, which fails alone.
        ``num_bits`` defaults to :attr:`bits_per_burst`.
        """
        cfg = self.config
        if num_bits is None:
            num_bits = self.bits_per_burst
        x = np.asarray(samples, dtype=np.complex128)
        if x.ndim != 2:
            raise ValueError("receive_batch expects a (B, nsamples) stack")
        if not len(x):
            _check_num_bits(num_bits, self.psk)
            return []
        # a non-finite row poisons only its own row of the filter; the
        # reshape keeps rows of no samples 2-D (they filter to a 1-D [])
        with np.errstate(invalid="ignore", over="ignore"):
            mf = srrc_filter(x, *self._srrc, matched=True).reshape(len(x), -1)
        finite = np.isfinite(mf).all(axis=1)
        # zero a failed row so that no NaN or inf reaches acquisition
        mf[~finite] = 0.0
        # group delay of pulse + matched filter = len(pulse)-1 samples
        out: list = _return_link_engine(
            mf,
            self.code,
            self.psk,
            self.pilot,
            cfg.chip_sps,
            num_bits,
            group_delay=len(self.pulse) - 1,
        )
        for r in np.flatnonzero(~finite):
            out[r] = BurstSyncError("burst has non-finite samples")
        _count_cdma_metrics("burst", cfg.sf, len(out), num_bits)
        return out


class CdmaReturnBank:
    """Multi-user CDMA return-link engine: U users, one front end.

    The S-UMTS return link code-multiplexes many users onto one
    composite uplink.  A bank holds one :class:`CdmaModem` per user
    (sharing the chip-level front end: SF, chip rate, SRRC pulse), and
    :meth:`receive` demodulates *all* of them from one composite
    waveform: the matched filter runs **once**, every user's code phase
    is found in one FFT pass over shared chip samples
    (:func:`_noncoherent_stats`), all early-late DLLs track in
    ``U``-wide lock-step on chip sums and the settled despread is two
    strided chip-sum reductions per user.  Per-user results -- bits,
    symbols and FDIR diagnostics -- are identical to running each
    user's scalar :meth:`CdmaModem.receive` on the same composite
    samples.

    A bank holds no per-call state, so one bank serves every caller:
    :meth:`for_users` hands out a cached instance, its shared arrays
    (``codes``, ``pilot``) are read-only and its ``config`` is frozen.
    """

    def __init__(self, configs: Sequence[CdmaConfig]) -> None:
        if not configs:
            raise ValueError("need at least one user config")
        front = (
            configs[0].sf,
            configs[0].chip_sps,
            configs[0].beta,
            configs[0].span,
            configs[0].modulation,
        )
        for c in configs[1:]:
            if (c.sf, c.chip_sps, c.beta, c.span, c.modulation) != front:
                raise ValueError(
                    "bank users must share the chip-level front end "
                    "(sf, chip_sps, beta, span, modulation)"
                )
        self.modems = tuple(CdmaModem(c) for c in configs)
        self.codes = freeze(np.stack([m.code for m in self.modems]))
        base = self.modems[0]
        self.config = base.config
        self.psk = base.psk
        self.pilot = base.pilot
        self.pulse = base.pulse
        self._srrc = base._srrc

    @classmethod
    def for_users(
        cls, num_users: int, base: CdmaConfig | None = None
    ) -> "CdmaReturnBank":
        """Bank of ``num_users`` on distinct Gold scrambling overlays.

        The S-UMTS return-link arrangement: every terminal keeps the
        same channelization branch but gets its **own scrambling
        code** (consecutive members of the degree-9 Gold family above
        ``base.scrambling_shift``).  Unlike stacking users on OVSF
        branches under one scrambler -- whose identical pilot preambles
        sum coherently and bury the per-user acquisition peak --
        distinct scramblers keep every user's correlation peak sharp.

        The scrambled codes are short and not orthogonal, so the users
        interfere with each other (multiple-access interference) and
        the load one SF carries is bounded by the code family, not by
        the receiver.  On noiseless composites of random 128-bit
        bursts, SF 16 decodes 2 users clean but not 3 (one user takes
        2-32 bit errors, and still 0-4 with the DLL held still) or 4
        (two users take 13-22 errors each, with or without the DLL);
        SF 32 decodes 4 users and SF 64 8 users clean.

        Equal ``(num_users, base)`` pairs return the same cached bank
        (design cache ``cdma.return_bank``), so a caller that demodulates
        composite after composite builds it once.
        """
        base = base or CdmaConfig()
        if not 1 <= num_users <= _GOLD_FAMILY:
            raise ValueError(f"num_users must be in [1, {_GOLD_FAMILY}]")
        return _return_bank(int(num_users), base)

    @property
    def num_users(self) -> int:
        return len(self.modems)

    def transmit(self, bits_rows: Sequence[np.ndarray]) -> np.ndarray:
        """Superimpose every user's burst into one composite waveform."""
        if len(bits_rows) != self.num_users:
            raise ValueError("need one bit burst per user")
        streams = [m.transmit(b) for m, b in zip(self.modems, bits_rows)]
        n = max(len(s) for s in streams)
        out = np.zeros(n, dtype=np.complex128)
        for s in streams:
            out[: len(s)] += s
        return out

    def receive(self, samples: np.ndarray, num_bits: int) -> list[dict]:
        """Demodulate every user from one composite waveform.

        Returns one result dict per user (same keys as
        :meth:`CdmaModem.receive`), in bank order.
        """
        x = np.asarray(samples, dtype=np.complex128)
        if x.ndim != 1:
            raise ValueError("the bank receives one shared composite waveform")
        # matched-filter once for the whole bank (the one-row call of the
        # scalar path, so per-user samples agree bitwise); reshape, not
        # [0], since an empty composite filters to a 1-D empty array
        mf = srrc_filter(x[None, :], *self._srrc, matched=True).reshape(-1)
        out = _return_link_engine(
            mf,
            self.codes,
            self.psk,
            self.pilot,
            self.config.chip_sps,
            num_bits,
            group_delay=len(self.pulse) - 1,
        )
        _count_cdma_metrics("bank", self.config.sf, len(out), num_bits)
        return out


@cached_design("cdma.return_bank", maxsize=8)
def _return_bank(num_users: int, base: CdmaConfig) -> CdmaReturnBank:
    """The bank :meth:`CdmaReturnBank.for_users` hands out, keyed on
    ``(num_users, base)``."""
    return CdmaReturnBank(
        [
            replace(base, scrambling_shift=(base.scrambling_shift + u) % _GOLD_FAMILY)
            for u in range(num_users)
        ]
    )
