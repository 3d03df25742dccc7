"""UMTS convolutional codes and Viterbi decoding (TS 25.212 §4.2.3.1).

The constraint-length-9 codes of UMTS:

- rate 1/2, generators (561, 753) octal;
- rate 1/3, generators (557, 663, 711) octal.

Encoding appends 8 zero tail bits so the trellis terminates in the
all-zero state.  The Viterbi decoder accepts hard bits (0/1) or soft
LLRs (positive = bit 0, the convention of
:meth:`repro.dsp.modem.PskModem.demodulate_soft`).

The decoder is the payload's per-burst throughput ceiling (the Fig. 2
regenerative payload decodes *every* carrier of *every* burst on
board), so the add-compare-select recursion is implemented as a direct
**two-predecessor butterfly** -- for the feedforward shift-register
trellis, next-state ``s'`` is reached only from predecessors
``(s' << 1) & (ns - 1)`` and ``(s' << 1 | 1) & (ns - 1)`` with the
input bit ``s' >> (K - 2)`` -- vectorized across all 256 states *and*
across a leading **batch axis**: one add-compare-select step is a copy
of the predecessor metrics, one add, one compare and one max over a
``(2, 256, batch)`` slice of a candidate table gathered ahead of the
loop.  :meth:`ConvolutionalCode.decode`
processes one block; :meth:`ConvolutionalCode.decode_batch` processes a
``(batch, n)`` stack of blocks in one trellis sweep, bit-identically to
looping the scalar decoder (same elementwise operations, broadcast over
the batch axis).
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze
from ..obs.probes import probe

__all__ = ["ConvolutionalCode", "UMTS_RATE_12", "UMTS_RATE_13"]

#: bytes of Viterbi candidate table gathered at a time (see ``decode_batch``)
_CAND_BYTES = 1 << 19


@cached_design("coding.conv_trellis", maxsize=32)
def _trellis_tables(generators: tuple[int, ...], constraint_length: int):
    """Next-state/output/butterfly tables for a feedforward trellis.

    Cached process-wide: every :class:`ConvolutionalCode` with the same
    ``(generators, K)`` shares the same frozen tables, so repeated
    decoder-personality construction stops re-deriving them.

    Returns ``(next_state, outputs, pat, pred_words)`` where ``pat`` is
    the ``(2**n_out, n_out)`` table of +-1 sign patterns (one row per
    possible branch-output word) and ``pred_words`` the ``(2 * ns,)``
    pattern indices of the branches into every next-state from its even
    butterfly predecessor, then from its odd one.  A branch's
    LLR-correlation metric is then ``(llr @ pat.T)[..., pred_words]``
    -- only ``2**n_out`` distinct correlations exist per trellis step,
    so the matmul shrinks from ``ns`` columns to ``2**n_out`` and the
    per-state expansion becomes a cheap gather.
    """
    k = constraint_length
    ns = 1 << (k - 1)
    n_out = len(generators)
    states = np.arange(ns)
    next_state = np.empty((ns, 2), dtype=np.int64)
    outputs = np.empty((ns, 2, n_out), dtype=np.uint8)
    for bit in (0, 1):
        # shift register contents: [input, state bits]; register value
        reg = (bit << (k - 1)) | states
        next_state[:, bit] = reg >> 1
        for j, g in enumerate(generators):
            v = reg & g
            # parity of v (vectorized popcount & 1)
            parity = np.zeros(ns, dtype=np.uint8)
            t = v.copy()
            while np.any(t):
                parity ^= (t & 1).astype(np.uint8)
                t >>= 1
            outputs[:, bit, j] = parity

    # butterfly structure: s' = (bit << (k-2)) | (state >> 1), so each
    # next-state has exactly two predecessors and a unique input bit.
    in_bit = (states >> (k - 2)).astype(np.int64) if k > 2 else states.copy()
    pred0 = (states << 1) & (ns - 1)
    pred1 = pred0 | 1
    # sanity: the butterfly must reproduce the next-state table
    assert np.array_equal(next_state[pred0, in_bit], states)
    assert np.array_equal(next_state[pred1, in_bit], states)

    # branch-output words of the two incoming branches of every
    # next-state, encoded as pattern-table indices (output bit j ->
    # bit j of the index) ...
    weights = 1 << np.arange(n_out, dtype=np.int64)
    words = outputs.astype(np.int64) @ weights  # (ns, 2)
    p0idx = words[pred0, in_bit]  # (ns,)
    p1idx = words[pred1, in_bit]
    # ... and the +-1 sign pattern each index decodes to (+1 for
    # output bit 0, -1 for bit 1), for LLR-correlation branch metrics.
    pat_bits = (np.arange(1 << n_out)[:, None] >> np.arange(n_out)[None, :]) & 1
    pat = 1.0 - 2.0 * pat_bits.astype(np.float64)  # (2**n_out, n_out)
    pred_words = np.concatenate([p0idx, p1idx])
    return tuple(freeze(a) for a in (next_state, outputs, pat, pred_words))


class ConvolutionalCode:
    """Feedforward convolutional code with terminated Viterbi decoding.

    Parameters
    ----------
    generators:
        Octal generator polynomials (MSB = current input bit).
    constraint_length:
        K; the encoder has ``K - 1`` memory bits (=> ``2**(K-1)`` states).
    """

    def __init__(self, generators: tuple[int, ...], constraint_length: int = 9):
        if constraint_length < 2:
            raise ValueError("constraint_length must be >= 2")
        if not generators:
            raise ValueError("need at least one generator")
        self.k = constraint_length
        self.generators = tuple(int(str(g), 8) for g in generators)
        for g in self.generators:
            if g >> constraint_length:
                raise ValueError(f"generator {g:o} too wide for K={constraint_length}")
        self.n_out = len(self.generators)
        self.num_states = 1 << (self.k - 1)
        (
            self.next_state,
            self.outputs,
            self._pat,
            self._pred_words,
        ) = _trellis_tables(self.generators, self.k)

    @property
    def rate(self) -> float:
        """Nominal code rate (ignoring tail bits)."""
        return 1.0 / self.n_out

    # -- encoding --------------------------------------------------------
    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode and terminate: output length = (len(bits)+K-1) * n_out."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        tail = np.zeros(self.k - 1, dtype=np.uint8)
        stream = np.concatenate([bits, tail])
        out = np.empty(len(stream) * self.n_out, dtype=np.uint8)
        state = 0
        for i, b in enumerate(stream):
            out[i * self.n_out : (i + 1) * self.n_out] = self.outputs[state, b]
            state = self.next_state[state, b]
        return out

    def encoded_length(self, num_bits: int) -> int:
        """Length of :meth:`encode` output for ``num_bits`` message bits."""
        return (num_bits + self.k - 1) * self.n_out

    # -- decoding ----------------------------------------------------------
    def _to_llr(self, received: np.ndarray, soft: bool) -> np.ndarray:
        if soft:
            return received.astype(np.float64)
        # map hard bits to pseudo-LLRs (+1 for 0, -1 for 1)
        return 1.0 - 2.0 * received.astype(np.float64)

    def decode(self, received: np.ndarray, num_bits: int, soft: bool = False) -> np.ndarray:
        """Terminated Viterbi decoding of one block.

        Parameters
        ----------
        received:
            Hard bits (when ``soft=False``) or LLRs (``soft=True``,
            positive = bit 0) of length ``encoded_length(num_bits)``.
        num_bits:
            Message length to recover (tail is stripped).
        """
        received = np.asarray(received)
        if received.ndim != 1:
            raise ValueError("decode expects a 1-D block; use decode_batch")
        return self.decode_batch(received[None, :], num_bits, soft=soft)[0]

    def decode_batch(
        self, received: np.ndarray, num_bits: int, soft: bool = True
    ) -> np.ndarray:
        """Batched terminated Viterbi decoding.

        ``received`` is a ``(batch, encoded_length(num_bits))`` stack of
        code blocks (LLRs when ``soft=True``, hard bits otherwise); the
        whole batch runs through a single vectorized trellis sweep.
        Returns a ``(batch, num_bits)`` uint8 array, bit-identical to
        looping :meth:`decode` over the rows.
        """
        received = np.asarray(received)
        if received.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {received.shape}")
        total = num_bits + self.k - 1
        if received.shape[1] != total * self.n_out:
            raise ValueError(
                f"expected {total * self.n_out} code symbols per block, "
                f"got {received.shape[1]}"
            )
        nb = received.shape[0]
        if nb == 0:
            return np.zeros((0, num_bits), dtype=np.uint8)
        llr = self._to_llr(received, soft).reshape(nb, total, self.n_out)
        ns = self.num_states
        half = ns // 2

        # Branch metrics: only 2**n_out distinct branch-output words
        # exist, so one small matmul (time-major so each step's slice
        # is contiguous) computes every possible LLR correlation per
        # step, and the per-state metric is a gather through the
        # pattern-index table.
        llr_t = np.ascontiguousarray(llr.transpose(1, 0, 2)).reshape(
            total * nb, self.n_out
        )
        corr = (llr_t @ self._pat.T).reshape(total, nb, self._pat.shape[0])
        corr = np.ascontiguousarray(corr.transpose(0, 2, 1))  # (step, word, batch)

        # Metrics are state-major, (state, batch), so every per-step
        # array has the batch as its contiguous inner axis.
        metrics = np.full((ns, nb), -np.inf)
        metrics[0] = 0.0  # trellis starts in state 0
        # Next-state s' = h*half + j is fed by predecessors 2j (even)
        # and 2j+1 (odd) for both halves h -- the butterfly's shuffle
        # structure.  Each step copies the even and odd metrics into one
        # contiguous (parity, 1, j, batch) buffer, broadcast over h.
        pred = metrics.reshape(half, 2, nb).transpose(1, 0, 2)
        pred_buf = np.empty((2, 1, half, nb))
        out = metrics.reshape(2, half, nb)
        # choice[t, s', b] = True when the odd-predecessor branch survives
        choice = np.empty((total, ns, nb), dtype=bool)
        choice_steps = choice.reshape(total, 2, half, nb)
        # The two incoming branch metrics of every next-state are
        # gathered into a contiguous (step, parity * next-state, batch)
        # candidate table, _CAND_BYTES worth of steps at a time so the
        # table stays in cache at large batches.
        chunk = max(1, _CAND_BYTES // (2 * ns * nb * 8))
        cand = np.empty((min(chunk, total), 2 * ns, nb))
        cand_steps = cand.reshape(-1, 2, 2, half, nb)
        for t0 in range(0, total, chunk):
            n = min(chunk, total - t0)
            # the word indices are in range by construction: "clip"
            # only skips the bounds check
            np.take(
                corr[t0 : t0 + n], self._pred_words, axis=1, out=cand[:n], mode="clip"
            )
            for c, ch in zip(cand_steps[:n], choice_steps[t0 : t0 + n]):
                np.copyto(pred_buf[:, 0], pred)
                np.add(c, pred_buf, out=c)
                np.greater(c[1], c[0], out=ch)
                np.maximum(c[0], c[1], out=out)

        # traceback from state 0 (terminated trellis), whole batch at
        # once: the surviving predecessor of s' is (s' << 1 | choice)
        # within the state mask, and s' carries its input bit on top
        states = np.zeros(nb, dtype=np.int64)
        rows = np.arange(nb)
        path = np.empty((total, nb), dtype=np.int64)
        for t in range(total - 1, -1, -1):
            path[t] = states
            states = ((states << 1) & (ns - 1)) | choice[t, states, rows]
        decoded = (path[:num_bits].T >> (self.k - 2)).astype(np.uint8)

        p = probe("perf.viterbi", code=f"k{self.k}r1_{self.n_out}")
        if p is not None:
            p.count("batches")
            p.count("blocks", nb)
            p.count("bits", nb * num_bits)
        return decoded


#: TS 25.212 rate-1/2 code: G0 = 561, G1 = 753 (octal), K = 9.
UMTS_RATE_12 = ConvolutionalCode((561, 753), 9)
#: TS 25.212 rate-1/3 code: G0 = 557, G1 = 663, G2 = 711 (octal), K = 9.
UMTS_RATE_13 = ConvolutionalCode((557, 663, 711), 9)
