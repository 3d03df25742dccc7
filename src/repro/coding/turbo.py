"""UMTS turbo code (TS 25.212 §4.2.3.2) with max-log-MAP decoding.

The paper's decoder-reconfiguration example (§2.3) contrasts three UMTS
coding options; the turbo code is the most complex of them.  This module
implements:

- the rate-1/3 PCCC with the 8-state RSC constituents
  ``g0(D) = 1 + D^2 + D^3`` (feedback) and ``g1(D) = 1 + D + D^3``,
  including the spec's trellis-termination tail (12 tail bits);
- the TS 25.212 internal interleaver (prime-based intra-row permutations
  with least-primitive-root generators and the R5/R10/R20 inter-row
  patterns);
- an iterative max-log-MAP (BCJR) decoder with extrinsic exchange,
  batched over a leading block axis: :meth:`TurboCode.decode_batch`
  decodes a ``(batch, n)`` stack of code blocks at once,
  bit-identically to looping :meth:`TurboCode.decode` (the scalar path
  delegates to the batched kernel with ``batch == 1``).  Each SISO runs
  the forward and backward recursions as one fused butterfly loop:
  relabelling the backward states by 3-bit reversal gives both
  recursions the same two-predecessor structure, so one step is one
  add and one max over a ``(2, 2, batch, 8)`` stack (see
  ``docs/performance.md``, "Trellis kernels");
- early stopping: given a ``stop`` test (the transport CRC), a block is
  retired once its decision repeats and passes it, and the remaining
  blocks iterate on compacted arrays.
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze
from ..obs.probes import probe

__all__ = ["TurboCode", "umts_turbo_interleaver"]

# ---------------------------------------------------------------------------
# TS 25.212 internal interleaver
# ---------------------------------------------------------------------------

_T5 = [4, 3, 2, 1, 0]
_T10 = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
_T20A = [19, 9, 14, 4, 0, 2, 5, 7, 12, 18, 16, 13, 17, 15, 3, 1, 6, 11, 8, 10]
_T20B = [19, 9, 14, 4, 0, 2, 5, 7, 12, 18, 10, 8, 13, 17, 3, 1, 16, 6, 15, 11]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _least_primitive_root(p: int) -> int:
    """Smallest primitive root modulo prime p (matches the 25.212 table)."""
    phi = p - 1
    # factorize phi
    factors = set()
    n = phi
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@cached_design("coding.turbo_interleaver", maxsize=64)
def umts_turbo_interleaver(k: int) -> np.ndarray:
    """TS 25.212 §4.2.3.2.3 internal interleaver permutation.

    Returns a **read-only** index array ``pi`` of length ``k`` such
    that the interleaved sequence is ``x[pi]``.  Valid for ``40 <= k <=
    5114``.  Cached process-wide (the construction walks the prime /
    primitive-root tables in pure Python); every :class:`TurboCode`
    with the same block length shares one frozen permutation.
    """
    if not 40 <= k <= 5114:
        raise ValueError("UMTS turbo interleaver defined for 40 <= K <= 5114")

    # (1) number of rows
    if 40 <= k <= 159:
        r = 5
        t = _T5
    elif 160 <= k <= 200 or 481 <= k <= 530:
        r = 10
        t = _T10
    else:
        r = 20
        t = _T20A if (2281 <= k <= 2480 or 3161 <= k <= 3210) else _T20B

    # (2) prime p and number of columns C
    if 481 <= k <= 530:
        p = 53
        c = p
    else:
        p = 7
        while k > r * (p + 1) or not _is_prime(p):
            p += 1
        while not _is_prime(p):
            p += 1
        if k <= r * (p - 1):
            c = p - 1
        elif k <= r * p:
            c = p
        else:
            c = p + 1

    # (3) base sequence s for intra-row permutation
    v = _least_primitive_root(p)
    s = np.empty(p - 1, dtype=np.int64)
    s[0] = 1
    for j in range(1, p - 1):
        s[j] = (v * s[j - 1]) % p

    # (4) minimum prime integers q(i), gcd(q_i, p-1) == 1
    q = [1]
    cand = 2
    while len(q) < r:
        cand += 1
        if _is_prime(cand) and cand > q[-1] and _gcd(cand, p - 1) == 1:
            q.append(cand)
        # ensure strictly increasing primes: restart scan from last q
    # (the loop above increments cand monotonically, so q is increasing)

    # (5) permute q into r_i by the inter-row pattern: r[t[i]] = q[i]
    r_seq = np.empty(r, dtype=np.int64)
    for i in range(r):
        r_seq[t[i]] = q[i]

    # (6) intra-row permutations U_i(j)
    u = np.empty((r, c), dtype=np.int64)
    for i in range(r):
        if c == p:
            for j in range(p - 1):
                u[i, j] = s[(j * r_seq[i]) % (p - 1)]
            u[i, p - 1] = 0
        elif c == p + 1:
            for j in range(p - 1):
                u[i, j] = s[(j * r_seq[i]) % (p - 1)]
            u[i, p - 1] = 0
            u[i, p] = p
        else:  # c == p - 1
            for j in range(p - 1):
                u[i, j] = s[(j * r_seq[i]) % (p - 1)] - 1
    if c == p + 1 and k == r * c:
        u[r - 1, p], u[r - 1, 0] = u[r - 1, 0], u[r - 1, p]

    # (7) fill matrix row-by-row with input indices, apply intra-row and
    #     inter-row permutations, read column-by-column, prune >= k
    mat = np.arange(r * c, dtype=np.int64).reshape(r, c)
    intra = np.empty_like(mat)
    for i in range(r):
        intra[i] = mat[i, u[i]]
    inter = intra[t, :]
    out = inter.T.ravel()
    return freeze(out[out < k])


# ---------------------------------------------------------------------------
# RSC constituent trellis (g0 = 13, g1 = 15 octal; 8 states)
# ---------------------------------------------------------------------------

_NSTATES = 8


def _rsc_step(state: int, bit: int) -> tuple[int, int]:
    """One step of the UMTS RSC: returns (next_state, parity).

    State register ``(s1, s2, s3)`` packed MSB-first; feedback
    ``fb = bit ^ s2 ^ s3``; parity ``fb ^ s1 ^ s3``.
    """
    s1 = (state >> 2) & 1
    s2 = (state >> 1) & 1
    s3 = state & 1
    fb = bit ^ s2 ^ s3
    parity = fb ^ s1 ^ s3
    nxt = (fb << 2) | (s1 << 1) | s2
    return nxt, parity


def _tail_bit(state: int) -> int:
    """Input that drives the RSC feedback to zero (termination bit)."""
    s2 = (state >> 1) & 1
    s3 = state & 1
    return s2 ^ s3


# precomputed tables
_NEXT = np.empty((_NSTATES, 2), dtype=np.int64)
_PAR = np.empty((_NSTATES, 2), dtype=np.int64)
for _s in range(_NSTATES):
    for _b in (0, 1):
        _NEXT[_s, _b], _PAR[_s, _b] = _rsc_step(_s, _b)

# Butterfly tables for the fused alpha/beta recursion.  The RSC has
# ``next(s, b) = (fb, s1, s2)``, so next-state ``n`` is reached only from
# ``2 (n mod 4)`` and ``2 (n mod 4) + 1`` -- the even and odd entries of
# the metric vector, a strided view rather than a gather.  The
# successors of ``s`` are ``s >> 1`` and ``(s >> 1) + 4``; relabel the
# beta states by the 3-bit reversal ``_REV`` (an involution fixing 0)
# and the backward recursion has the very same predecessor structure.
# ``_FLAT_A[j, n]`` / ``_FLAT_B[j, r]`` are the flat ``2 * state + bit``
# gamma indices of the branch feeding slot ``j`` of alpha state ``n`` /
# reversed-beta state ``r``.
_REV = np.array([int(f"{_s:03b}"[::-1], 2) for _s in range(_NSTATES)])
_REV_NEXT = _REV[_NEXT]
_FLAT_A = np.empty((2, _NSTATES), dtype=np.int64)
_FLAT_B = np.empty((2, _NSTATES), dtype=np.int64)
for _x in range(_NSTATES):
    for _j in (0, 1):
        _p = 2 * (_x % 4) + _j
        _FLAT_A[_j, _x] = 2 * _p + int(np.flatnonzero(_NEXT[_p] == _x)[0])
        _s = int(_REV[_x])
        _FLAT_B[_j, _x] = 2 * _s + int(np.flatnonzero(_REV_NEXT[_s] == _p)[0])
assert np.array_equal(_REV[_REV], np.arange(_NSTATES)) and _REV[0] == 0


class TurboCode:
    """UMTS rate-1/3 PCCC turbo codec.

    Encoded layout (TS 25.212): ``x1 z1 z2  x2 z1 z2 ... xK z1 z2``
    followed by 12 tail bits
    ``x(K+1) z1(K+1) x(K+2) z1(K+2) x(K+3) z1(K+3)
    x'(K+1) z2(K+1) x'(K+2) z2(K+2) x'(K+3) z2(K+3)``.

    Decoding is iterative max-log-MAP with ``iterations`` half-iteration
    pairs and optional extrinsic scaling (0.75 is the usual max-log
    compensation).
    """

    def __init__(self, block_length: int, iterations: int = 6, ext_scale: float = 0.75):
        if not 40 <= block_length <= 5114:
            raise ValueError("block_length must be in [40, 5114]")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.k = block_length
        self.iterations = iterations
        self.ext_scale = ext_scale
        self.interleaver = umts_turbo_interleaver(block_length)
        self.deinterleaver = np.argsort(self.interleaver)

    @property
    def encoded_length(self) -> int:
        """3*K + 12 code bits."""
        return 3 * self.k + 12

    @property
    def rate(self) -> float:
        return self.k / self.encoded_length

    # -- encoding --------------------------------------------------------
    def _encode_rsc(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode one constituent; returns (parity, tail_sys, tail_par)."""
        state = 0
        par = np.empty(len(bits), dtype=np.uint8)
        for i, b in enumerate(bits):
            state, p = _rsc_step(state, int(b))
            par[i] = p
        tail_sys = np.empty(3, dtype=np.uint8)
        tail_par = np.empty(3, dtype=np.uint8)
        for i in range(3):
            tb = _tail_bit(state)
            tail_sys[i] = tb
            state, p = _rsc_step(state, tb)
            tail_par[i] = p
        assert state == 0, "termination failed"
        return par, tail_sys, tail_par

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode ``block_length`` bits into ``3K + 12`` code bits."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        if len(bits) != self.k:
            raise ValueError(f"expected {self.k} bits, got {len(bits)}")
        z1, t1s, t1p = self._encode_rsc(bits)
        interleaved = bits[self.interleaver]
        z2, t2s, t2p = self._encode_rsc(interleaved)
        body = np.empty(3 * self.k, dtype=np.uint8)
        body[0::3] = bits
        body[1::3] = z1
        body[2::3] = z2
        tail = np.empty(12, dtype=np.uint8)
        tail[0::2][:3] = t1s
        tail[1::2][:3] = t1p
        tail[6::2] = t2s
        tail[7::2] = t2p
        return np.concatenate([body, tail])

    # -- decoding ----------------------------------------------------------
    @staticmethod
    def _siso_batch(
        lsys: np.ndarray,
        lpar: np.ndarray,
        lapr: np.ndarray,
        tail_sys: np.ndarray,
        tail_par: np.ndarray,
    ) -> np.ndarray:
        """Batched max-log-MAP SISO for one terminated RSC constituent.

        All inputs carry a leading batch axis: ``lsys``/``lpar``/
        ``lapr`` are ``(batch, K)`` channel LLRs (positive = bit 0) and
        ``tail_sys``/``tail_par`` are ``(batch, 3)``.  Returns the
        ``(batch, K)`` extrinsic LLRs.  The forward and (bit-reversal
        relabelled) backward recursions share one ``K + 3``-step loop
        of two ufunc calls each -- an add of the step's branch metrics
        to a strided view of the previous metrics, and a max over the
        two predecessors -- across the whole batch and all 8 states;
        the per-bit LLR extraction is vectorized over time *and* batch.
        """
        nb, k = lsys.shape
        total = k + 3
        # per-step (sys, par, apriori) with tail steps having no a priori
        ls = np.concatenate([lsys, tail_sys], axis=1)  # (nb, total)
        lp = np.concatenate([lpar, tail_par], axis=1)
        la = np.concatenate([lapr, np.zeros((nb, 3))], axis=1)

        # gamma[t, b, s, bit]: branch metric
        # bit value mapping: 0 -> +1, 1 -> -1; metric = 0.5*(la+ls)*x + 0.5*lp*pv
        xsign = np.array([1.0, -1.0])  # per input bit
        psign = 1.0 - 2.0 * _PAR  # (8, 2)
        half_in = (0.5 * (la + ls)).T  # (total, nb)
        half_par = (0.5 * lp).T
        gammas = (
            half_in[:, :, None, None] * xsign[None, None, None, :]
            + half_par[:, :, None, None] * psign[None, None, :, :]
        )  # (total, nb, 8, 2)

        # Branch metrics of every step, gathered once into the loop's
        # (step, pred slot j, direction, batch, state) layout; direction
        # 1 walks time backwards and labels states by _REV.
        flat = gammas.reshape(total, nb, 2 * _NSTATES)
        table = np.empty((total, 2, 2, nb, _NSTATES))
        table[:, :, 0] = np.take(flat, _FLAT_A, axis=2).transpose(0, 2, 1, 3)
        table[:, :, 1] = np.take(flat[::-1], _FLAT_B, axis=2).transpose(0, 2, 1, 3)

        # metrics[i, 0] = alpha[i]; metrics[i, 1] = beta[total - i][_REV]
        metrics = np.full((total + 1, 2, nb, _NSTATES), -np.inf)
        metrics[0, :, :, 0] = 0.0  # start state and terminated end state
        # state n = 4h + q is fed from 2q + j: view the previous metrics
        # as (j, direction, batch, 1, q), broadcast over h
        prev = metrics.reshape(total + 1, 2, nb, 4, 2).transpose(0, 4, 1, 2, 3)[
            :, :, :, :, None, :
        ]
        nxt = metrics.reshape(total + 1, 2, nb, 2, 4)[1:]
        cand = np.empty((2, 2, nb, 2, 4))
        slot0, slot1 = cand
        for gam, pm, out in zip(table.reshape(total, 2, 2, nb, 2, 4), prev, nxt):
            np.add(pm, gam, out=cand)
            np.maximum(slot0, slot1, out=out)

        # LLR for data steps only, all steps at once
        alpha = metrics[:k, 0]
        beta_next = metrics[total - 1 : 2 : -1, 1]  # beta[1 : k + 1] in _REV labels
        m = alpha[:, :, :, None] + gammas[:k] + beta_next[:, :, _REV_NEXT]
        llr = m[..., 0].max(axis=2) - m[..., 1].max(axis=2)  # (k, nb)
        # extrinsic: remove channel systematic and a priori
        return llr.T - lsys - lapr

    def decode(self, llr: np.ndarray, return_iterations: bool = False):
        """Iteratively decode channel LLRs (positive = bit 0).

        Returns hard bit decisions (and per-iteration decisions when
        ``return_iterations`` is set).  Delegates to
        :meth:`decode_batch` with a batch of one, so scalar and batched
        decoding share a single kernel and are bit-identical by
        construction.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 1:
            raise ValueError("decode expects a 1-D block; use decode_batch")
        if return_iterations:
            bits, history = self.decode_batch(
                llr[None, :], return_iterations=True
            )
            return bits[0], [h[0] for h in history]
        return self.decode_batch(llr[None, :])[0]

    def decode_batch(self, llr: np.ndarray, return_iterations: bool = False, stop=None):
        """Batched iterative turbo decoding.

        ``llr`` is a ``(batch, 3K + 12)`` stack of channel LLR blocks
        (positive = bit 0); every SISO half-iteration runs across the
        whole batch in one recursion.  Returns a ``(batch, K)`` uint8
        array (plus a list of per-iteration ``(batch, K)`` decisions
        when ``return_iterations`` is set), bit-identical to looping
        :meth:`decode` over the rows.

        ``stop`` enables early stopping: a callable mapping a
        ``(rows, K)`` decision array to a boolean row mask (the
        transport chain passes its CRC check).  After every iteration
        but the last, each live row's decision is formed with the final
        formula; a row whose decision equals its previous iteration's
        and passes ``stop`` is retired with that decision, and the
        remaining rows run on compacted arrays.  The SISO works row by
        row, so a row that is never retired decodes bit-identically to
        ``stop=None``.
        """
        if stop is not None and return_iterations:
            raise ValueError("stop and return_iterations are mutually exclusive")
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {llr.shape}")
        if llr.shape[1] != self.encoded_length:
            raise ValueError(
                f"expected {self.encoded_length} LLRs per block, got {llr.shape[1]}"
            )
        nb = llr.shape[0]
        k = self.k
        body = llr[:, : 3 * k]
        tail = llr[:, 3 * k :]
        lsys = np.ascontiguousarray(body[:, 0::3])
        lz1 = np.ascontiguousarray(body[:, 1::3])
        lz2 = np.ascontiguousarray(body[:, 2::3])
        t1s = tail[:, 0:6:2]
        t1p = tail[:, 1:6:2]
        t2s = tail[:, 6:12:2]
        t2p = tail[:, 7:12:2]

        lsys_i = lsys[:, self.interleaver]
        apr1 = np.zeros((nb, k))
        history = []
        bits = np.empty((nb, k), dtype=np.uint8)
        rows = np.arange(nb)  # batch index of every live row
        prev = None
        iterations_run = 0
        for it in range(self.iterations):
            iterations_run += len(rows)
            ext1 = self._siso_batch(lsys, lz1, apr1, t1s, t1p)
            ext1 *= self.ext_scale
            apr2 = ext1[:, self.interleaver]
            ext2 = self._siso_batch(lsys_i, lz2, apr2, t2s, t2p)
            ext2 *= self.ext_scale
            ext2_de = ext2[:, self.deinterleaver]
            apr1 = ext2_de
            if return_iterations:
                post = lsys + ext1 + ext2_de
                history.append((post < 0).astype(np.uint8))
            if stop is None or it == self.iterations - 1:
                continue
            dec = (lsys + apr1 + ext1 < 0).astype(np.uint8)
            if prev is not None:
                done = (dec == prev).all(axis=1)
                if done.any():
                    done[done] = stop(dec[done])
                if done.any():
                    bits[rows[done]] = dec[done]
                    keep = ~done
                    rows, dec, lsys, lz1, lz2, lsys_i, apr1, t1s, t1p, t2s, t2p = (
                        a[keep]
                        for a in (rows, dec, lsys, lz1, lz2, lsys_i, apr1, t1s, t1p, t2s, t2p)
                    )
                    if not len(rows):
                        break
            prev = dec
        if len(rows):
            bits[rows] = lsys + apr1 + ext1 < 0

        p = probe("perf.turbo", k=str(k))
        if p is not None:
            p.count("batches")
            p.count("blocks", nb)
            p.count("bits", nb * k)
            p.count("iterations", iterations_run)
        if return_iterations:
            return bits, history
        return bits
