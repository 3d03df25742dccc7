"""Symbol-timing recovery for the TDMA modem.

The paper (§2.3) selects between two published algorithms depending on
burst length:

- the **Gardner timing-error detector** [F.M. Gardner, "A BPSK/QPSK
  Timing Error Detector for Sampled Receivers", IEEE Trans. Comm. 1986]
  -- a decision-independent feedback loop working at 2 samples/symbol,
  suited to long bursts / continuous streams;
- the **Oerder & Meyr square-law estimator** [M. Oerder, H. Meyr,
  "Digital Filter and Square Timing Recovery", IEEE Trans. Comm. 1988]
  -- a feedforward block estimator, suited to short TDMA bursts.

Both are implemented here together with the cubic (4-point Lagrange)
interpolator they share.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..caching import cached_design, freeze

__all__ = [
    "cubic_interpolate",
    "farrow_coefficients",
    "fold_timing_offset",
    "fold_timing_offsets",
    "line_lock",
    "line_tau",
    "oerder_meyr_estimate",
    "oerder_meyr_recover",
    "oerder_meyr_strobes",
    "strobe_grid",
    "timing_line",
    "timing_line_table",
    "GardnerLoop",
    "loop_gains",
]

#: Cap on the diagnostic history ring buffers kept by the feedback
#: loops.  Long-running carriers previously grew
#: ``error_history``/``tau_history`` without bound; a few thousand
#: entries are plenty for every ``error_rms`` window in the repo.
HISTORY_MAXLEN = 4096


def cubic_interpolate(x: np.ndarray, base: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """4-point Lagrange cubic interpolation.

    Evaluates the signal at fractional positions ``base + mu`` where
    ``base`` are integer indices (pointing at the sample *before* the
    interpolation instant) and ``0 <= mu < 1``.  Points needing samples
    outside the array are clamped to the valid range.

    Batch-aware: a ``(C, n)`` stack ``x`` takes ``(C, m)`` ``base`` and
    ``mu`` and interpolates each row at its own instants, element for
    element the arithmetic of the 1-D call.
    """
    x = np.asarray(x)
    base = np.asarray(base, dtype=np.int64)
    mu = np.asarray(mu, dtype=np.float64)
    n = x.shape[-1]
    if n < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    base = np.clip(base, 1, n - 3)
    if x.ndim == 1:
        xm1, x0, x1, x2 = (x[base + d] for d in (-1, 0, 1, 2))
    else:
        xm1, x0, x1, x2 = (
            np.take_along_axis(x, base + d, axis=-1) for d in (-1, 0, 1, 2)
        )
    # Farrow-form cubic Lagrange coefficients
    c0 = x0
    c1 = x1 - xm1 / 3.0 - x0 / 2.0 - x2 / 6.0
    c2 = (xm1 + x1) / 2.0 - x0
    c3 = (x2 - xm1) / 6.0 + (x0 - x1) / 2.0
    return ((c3 * mu + c2) * mu + c1) * mu + c0


def farrow_coefficients(
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Farrow-form cubic coefficients for every base index of ``x``.

    Returns ``(c0, c1, c2, c3)`` arrays of length ``len(x) - 3`` where
    entry ``i`` holds the coefficients of base index ``b = i + 1``
    (the valid base range of :func:`cubic_interpolate` after clamping
    is ``[1, n - 3]``).  Evaluating
    ``((c3[b-1]*mu + c2[b-1])*mu + c1[b-1])*mu + c0[b-1]`` is
    bit-identical to ``cubic_interpolate(x, [b], [mu])[0]`` -- the same
    arithmetic, hoisted out of the per-strobe feedback loop so the loop
    body does pure scalar math (no per-symbol array allocation).
    """
    x = np.asarray(x)
    if len(x) < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    xm1 = x[:-3]
    x0 = x[1:-2]
    x1 = x[2:-1]
    x2 = x[3:]
    c0 = x0
    c1 = x1 - xm1 / 3.0 - x0 / 2.0 - x2 / 6.0
    c2 = (xm1 + x1) / 2.0 - x0
    c3 = (x2 - xm1) / 6.0 + (x0 - x1) / 2.0
    return c0, c1, c2, c3


def fold_timing_offset(tau: float, sps: int | float) -> float:
    """Fold a timing offset into the half-open interval ``[0, sps)``.

    ``np.mod`` alone cannot guarantee this: for a tiny negative ``tau``
    the rounded result equals the modulus itself
    (``np.mod(-1e-18, 4) == 4.0``), which violates the ``0 <= tau <
    sps`` contract of :func:`oerder_meyr_estimate` and mis-places the
    first strobe of :func:`oerder_meyr_recover` by one full symbol.
    The boundary folds back to ``0.0``.
    """
    return float(fold_timing_offsets(tau, sps))


def fold_timing_offsets(tau: np.ndarray, sps: int | float) -> np.ndarray:
    """:func:`fold_timing_offset` over an array of offsets."""
    t = np.mod(np.asarray(tau, dtype=np.float64), sps)
    return np.where(t >= sps, 0.0, t)


@cached_design("dsp.timing_line", maxsize=64)
def timing_line_table(n: int, sps: int) -> np.ndarray:
    """``exp(-j 2 pi k / sps)`` for ``k < n`` (cached, read-only): the
    kernel of the symbol-rate spectral line."""
    return freeze(np.exp(-2j * np.pi * np.arange(n) / sps))


def timing_line(x: np.ndarray, sps: int) -> tuple[np.ndarray, np.ndarray]:
    """The symbol-rate spectral line of ``|x|^2`` along the last axis.

    Returns ``(C1, C0)`` with ``C1 = sum |x[n]|^2 exp(-j 2 pi n / sps)``
    and ``C0 = sum |x[n]|^2`` -- one line per row serves both the
    Oerder&Meyr timing phase (``arg C1``) and the lock detector
    (``|C1| / C0``).
    """
    sq = np.abs(x) ** 2
    c1 = np.sum(sq * timing_line_table(sq.shape[-1], sps), axis=-1)
    return c1, np.sum(sq, axis=-1)


def strobe_grid(tau: np.ndarray, stop: float, sps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row symbol strobe instants ``np.arange(tau[r], stop, sps)``.

    Returns ``(positions, counts)``: a ``(C, max(counts))`` grid whose
    row ``r`` holds, in its first ``counts[r]`` entries, exactly the
    values ``np.arange(tau[r], stop, sps)`` produces.  That is *not*
    ``tau + sps * i``: ``arange`` stores ``tau + sps`` second and fills
    the rest as ``tau + i * ((tau + sps) - tau)``, which differs in the
    last bits.  Entries past a row's count continue its grid beyond
    ``stop``; callers mask them with ``counts``.
    """
    tau = np.asarray(tau, dtype=np.float64)
    counts = np.maximum(np.ceil((stop - tau) / sps), 0).astype(np.int64)
    i = np.arange(counts.max(initial=0), dtype=np.float64)
    positions = tau[:, None] + i * ((tau + sps) - tau)[:, None]
    if len(i) > 1:
        positions[:, 1] = tau + sps
    return positions, counts


def oerder_meyr_estimate(x: np.ndarray, sps: int) -> float:
    """Oerder & Meyr feedforward timing estimate.

    Returns the timing offset ``tau`` in samples, ``0 <= tau < sps``,
    estimated from the phase of the symbol-rate spectral line of
    ``|x|^2``:

    ``tau = -sps/(2*pi) * arg( sum_n |x[n]|^2 exp(-j*2*pi*n/sps) )``

    Requires ``sps >= 3`` (the spectral line must be observable) and at
    least a few tens of symbols for a stable estimate.
    """
    if sps < 3:
        raise ValueError("Oerder&Meyr requires sps >= 3 (4 typical)")
    x = np.asarray(x)
    if len(x) < 4 * sps:
        raise ValueError("burst too short for a timing estimate")
    return float(line_tau(timing_line(x, sps)[0], sps))


def line_tau(c1: np.ndarray, sps: int) -> np.ndarray:
    """Oerder&Meyr timing offsets ``[0, sps)`` from symbol-rate lines."""
    return fold_timing_offsets(-sps / (2.0 * np.pi) * np.angle(c1), sps)


def line_lock(c1: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """Timing-lock metrics ``|C1| / C0`` (0 where ``C0 <= 0``).

    The magnitude of the Oerder&Meyr symbol-rate line relative to the
    squared-envelope energy is a timing-lock detector: a PSK burst with
    excess bandwidth concentrates energy at the symbol rate, while
    noise leaves only the ``O(1/sqrt(N))`` estimation floor.  The FDIR
    health monitors (:mod:`repro.robustness.fdir`) check it per burst.
    """
    c0 = np.asarray(c0, dtype=np.float64)
    live = c0 > 0.0
    return np.where(live, np.abs(c1) / np.where(live, c0, 1.0), 0.0)


def oerder_meyr_strobes(
    x: np.ndarray, tau: np.ndarray, sps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate every row of a ``(C, n)`` stack at its own timing.

    Row ``r`` is sampled at ``np.arange(tau[r], n - 2.0, sps)``
    (:func:`strobe_grid`); returns ``(strobes, counts)`` where the
    first ``counts[r]`` entries of ``strobes[r]`` are that row's
    symbols and the rest is padding.
    """
    positions, counts = strobe_grid(tau, x.shape[-1] - 2.0, sps)
    base = np.floor(positions).astype(np.int64)
    return cubic_interpolate(x, base, positions - base), counts


def oerder_meyr_recover(x: np.ndarray, sps: int) -> tuple[np.ndarray, float]:
    """Block timing recovery: estimate tau then interpolate symbol samples.

    Returns ``(symbols, tau)`` where ``symbols`` are the interpolated
    symbol-rate samples.
    """
    tau = oerder_meyr_estimate(x, sps)
    strobes, counts = oerder_meyr_strobes(np.asarray(x)[None], np.array([tau]), sps)
    return strobes[0, : counts[0]], tau


def loop_gains(bn_ts: float, zeta: float = 0.7071, kd: float = 1.0) -> tuple[float, float]:
    """Proportional/integral gains of a 2nd-order digital PLL.

    ``bn_ts`` is the loop noise bandwidth normalized to the update (symbol)
    rate; ``zeta`` the damping; ``kd`` the detector gain.
    """
    if bn_ts <= 0:
        raise ValueError("loop bandwidth must be positive")
    theta = bn_ts / (zeta + 1.0 / (4.0 * zeta))
    denom = 1.0 + 2.0 * zeta * theta + theta * theta
    kp = 4.0 * zeta * theta / denom / kd
    ki = 4.0 * theta * theta / denom / kd
    return kp, ki


class GardnerLoop:
    """Gardner TED + 2nd-order loop + cubic interpolator (feedback).

    Works on an input at ``sps`` samples/symbol (``sps >= 2``); outputs
    one complex sample per symbol.  The Gardner error,

    ``e[k] = Re{ (y[k] - y[k-1]) * conj(y_mid[k]) }``,

    is decision-independent (works for BPSK and QPSK without carrier
    lock, the property the paper's reference [5] is cited for).

    The per-symbol recursion is inherently sequential, so this loop is a
    (small) Python loop at symbol rate -- but the interpolation math is
    hoisted out of it: :func:`farrow_coefficients` precomputes the
    cubic coefficients for every base index in one vectorized pass, so
    the loop body evaluates two Horner polynomials on Python complex
    scalars (the old code allocated two 1-element numpy arrays per
    symbol just to call :func:`cubic_interpolate`).

    ``error_history``/``tau_history`` are bounded ring buffers
    (``deque(maxlen=HISTORY_MAXLEN)``): long-running carriers used to
    leak memory, one float per symbol, forever.
    """

    def __init__(
        self,
        sps: int = 4,
        bn_ts: float = 0.01,
        zeta: float = 0.7071,
        initial_tau: float = 0.0,
        history_maxlen: int = HISTORY_MAXLEN,
    ) -> None:
        if sps < 2:
            raise ValueError("Gardner requires at least 2 samples/symbol")
        self.sps = sps
        self.kp, self.ki = loop_gains(bn_ts, zeta, kd=2.0)
        self.tau = float(initial_tau)  # fractional timing phase, samples
        self._integrator = 0.0
        self.error_history: deque[float] = deque(maxlen=history_maxlen)
        self.tau_history: deque[float] = deque(maxlen=history_maxlen)

    def process(self, x: np.ndarray) -> np.ndarray:
        """Recover symbols from one oversampled burst.

        Returns the symbol-rate strobes.  ``error_history`` and
        ``tau_history`` record the (bounded) loop trajectory for
        diagnostics.
        """
        x = np.asarray(x, dtype=np.complex128)
        sps = self.sps
        half = sps / 2.0
        out: list[complex] = []
        errs = self.error_history
        taus = self.tau_history

        n = len(x)
        if n >= 4:
            # Farrow coefficients for every base index, one vectorized
            # pass; entry i <-> base b = i + 1, matching the clamp
            # range [1, n - 3] of cubic_interpolate.
            c0, c1, c2, c3 = farrow_coefficients(x)
            b_max = n - 3

        pos = 1.0 + self.tau  # first strobe position (needs base >= 1)
        prev: complex | None = None
        while pos + half + 2.0 < n:
            b = int(pos)
            mu = pos - b
            i = min(max(b, 1), b_max) - 1
            y = complex(((c3[i] * mu + c2[i]) * mu + c1[i]) * mu + c0[i])
            pm = pos - half
            bm = int(pm)
            mum = pm - bm
            im = min(max(bm, 1), b_max) - 1
            ymid = ((c3[im] * mum + c2[im]) * mum + c1[im]) * mum + c0[im]
            if prev is not None:
                e = ((y - prev) * ymid.conjugate()).real
                self._integrator += self.ki * e
                adj = self.kp * e + self._integrator
                pos -= adj * sps
                errs.append(float(e))
                taus.append(fold_timing_offset(pos, sps))
            out.append(y)
            prev = y
            pos += sps
        self.tau = fold_timing_offset(pos, sps)
        return np.asarray(out, dtype=np.complex128)

    def error_rms(self, window: int = 64) -> float:
        """RMS of the last ``window`` detector errors (lock diagnostic).

        A settled loop shows a small residual (noise-driven) error; a
        loop that never converged -- wrong symbol rate, no signal --
        keeps a large detector error.  Returns 0.0 before any update.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if not self.error_history:
            return 0.0
        tail = np.asarray(self.error_history, dtype=np.float64)[-window:]
        return float(np.sqrt(np.mean(tail**2)))
