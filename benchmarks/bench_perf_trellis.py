"""Throughput benchmark of the fused trellis kernels.

The decoder personalities of §2.3 spend their time in trellis
recursions that take a few dozen small NumPy calls per step, so their
cost is per-call overhead, not arithmetic:

- the turbo max-log-MAP SISO ran its forward (alpha) and backward
  (beta) recursions as two loops of about 8 calls per step; it is now
  one fused loop of 2 calls per step, with the backward states
  relabelled by 3-bit reversal so both recursions share the same
  two-predecessor butterfly;
- the Viterbi add-compare-select step took 8 calls; it is now 4 over
  state-major arrays and a candidate table gathered ahead of the loop.

Each test checks bit-identity (float64 bit patterns) against a copy of
the step-by-step kernel, then gates the speedup (best of 3 rounds):
one SISO call >= 2x and turbo ``decode_batch`` of 8 blocks of K = 56
>= 1.8x; Viterbi ``decode_batch`` of 8 and 64 blocks no slower than
before.

Run modes
---------
- ``make test-perf`` / ``pytest benchmarks/bench_perf_trellis.py -s``
  -- full measurement, prints the tables;
- ``REPRO_PERF_SMOKE=1`` (CI) -- one round: code paths and
  bit-identity, no timing asserts;
- ``REPRO_OBS=1`` additionally records the ``perf.bench`` gauges.
"""

import os
import time

import numpy as np
import pytest

from repro.coding import UMTS_RATE_13, TurboCode
from repro.coding.turbo import _NEXT, _NSTATES, _PAR
from repro.obs.probes import probe

from conftest import print_table

pytestmark = pytest.mark.perf

#: CI smoke mode: one round, no timing assertions.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")

#: blocks per batch and block length of the gated cases (the wide
#: mission decodes 8 carriers of 40-bit transport blocks + CRC-16)
NB, K = 8, 56


def _best_of(fn, reps: int, rounds: int) -> float:
    """Best per-call time over ``rounds`` rounds of ``reps`` calls."""
    fn()  # warm caches out of the measurement
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _gauge(name: str, value: float, **labels: str) -> None:
    p = probe("perf.bench", bench="trellis", **labels)
    if p is not None:
        p.gauge(name, value)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype == np.float64:
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return np.array_equal(a, b)


# -- the step-by-step kernels the fused ones replaced ----------------------------
_PRED_FLAT = np.empty((_NSTATES, 2), dtype=np.int64)
_count = np.zeros(_NSTATES, dtype=np.int64)
for _s in range(_NSTATES):
    for _b in (0, 1):
        _n = int(_NEXT[_s, _b])
        _PRED_FLAT[_n, _count[_n]] = 2 * _s + _b
        _count[_n] += 1


def _ref_siso_batch(lsys, lpar, lapr, tail_sys, tail_par):
    nb, k = lsys.shape
    total = k + 3
    ls = np.concatenate([lsys, tail_sys], axis=1)
    lp = np.concatenate([lpar, tail_par], axis=1)
    la = np.concatenate([lapr, np.zeros((nb, 3))], axis=1)
    xsign = np.array([1.0, -1.0])
    psign = 1.0 - 2.0 * _PAR
    half_in = (0.5 * (la + ls)).T
    half_par = (0.5 * lp).T
    gammas = (
        half_in[:, :, None, None] * xsign[None, None, None, :]
        + half_par[:, :, None, None] * psign[None, None, :, :]
    )
    alpha = np.full((total + 1, nb, _NSTATES), -np.inf)
    alpha[0, :, 0] = 0.0
    p0 = _PRED_FLAT[:, 0]
    p1 = _PRED_FLAT[:, 1]
    for t in range(total):
        cand = (alpha[t][:, :, None] + gammas[t]).reshape(nb, 2 * _NSTATES)
        np.maximum(cand[:, p0], cand[:, p1], out=alpha[t + 1])
    beta = np.full((total + 1, nb, _NSTATES), -np.inf)
    beta[total, :, 0] = 0.0
    for t in range(total - 1, -1, -1):
        beta[t] = np.max(gammas[t] + beta[t + 1][:, _NEXT], axis=2)
    m = alpha[:k, :, :, None] + gammas[:k] + beta[1 : k + 1][:, :, _NEXT]
    llr = m[..., 0].max(axis=2) - m[..., 1].max(axis=2)
    return llr.T - lsys - lapr


def _ref_turbo_decode_batch(code, llr):
    nb, k = llr.shape[0], code.k
    body, tail = llr[:, : 3 * k], llr[:, 3 * k :]
    lsys = np.ascontiguousarray(body[:, 0::3])
    lz1 = np.ascontiguousarray(body[:, 1::3])
    lz2 = np.ascontiguousarray(body[:, 2::3])
    t1s, t1p, t2s, t2p = tail[:, 0:6:2], tail[:, 1:6:2], tail[:, 6:12:2], tail[:, 7:12:2]
    lsys_i = lsys[:, code.interleaver]
    apr1 = np.zeros((nb, k))
    for _ in range(code.iterations):
        ext1 = _ref_siso_batch(lsys, lz1, apr1, t1s, t1p)
        ext1 *= code.ext_scale
        ext2 = _ref_siso_batch(lsys_i, lz2, ext1[:, code.interleaver], t2s, t2p)
        ext2 *= code.ext_scale
        apr1 = ext2[:, code.deinterleaver]
    return ((lsys + apr1 + ext1) < 0).astype(np.uint8)


def _ref_viterbi_decode_batch(code, llr, num_bits):
    total = num_bits + code.k - 1
    nb = llr.shape[0]
    llr = llr.reshape(nb, total, code.n_out)
    ns = code.num_states
    half, quarter = ns // 2, ns // 4
    all_states = np.arange(ns)
    pred0 = (all_states << 1) & (ns - 1)
    pred1 = pred0 | 1
    p0idx, p1idx = code._pred_words[:ns], code._pred_words[ns:]
    llr_t = np.ascontiguousarray(llr.transpose(1, 0, 2)).reshape(total * nb, code.n_out)
    corr = (llr_t @ code._pat.T).reshape(total, nb, code._pat.shape[0])
    metrics = np.full((nb, 2, half), -np.inf)
    metrics.reshape(nb, ns)[:, 0] = 0.0
    choice = np.empty((total, nb, ns), dtype=bool)
    choice_steps = choice.reshape(total, nb, 2, half)
    m_even, m_odd = np.empty((nb, 2, quarter)), np.empty((nb, 2, quarter))
    cand0, cand1 = np.empty((nb, ns)), np.empty((nb, ns))
    me, mo = m_even.reshape(nb, half), m_odd.reshape(nb, half)
    c0v, c1v = cand0.reshape(nb, 2, half), cand1.reshape(nb, 2, half)
    for t in range(total):
        np.copyto(m_even, metrics[:, :, 0::2])
        np.copyto(m_odd, metrics[:, :, 1::2])
        np.take(corr[t], p0idx, axis=1, out=cand0)
        np.take(corr[t], p1idx, axis=1, out=cand1)
        c0v += me[:, None, :]
        c1v += mo[:, None, :]
        np.greater(c1v, c0v, out=choice_steps[t])
        np.maximum(c0v, c1v, out=metrics)
    states = np.zeros(nb, dtype=np.int64)
    rows = np.arange(nb)
    in_bit = all_states >> (code.k - 2)
    decoded = np.empty((nb, total), dtype=np.uint8)
    for t in range(total - 1, -1, -1):
        decoded[:, t] = in_bit[states]
        states = np.where(choice[t, rows, states], pred1[states], pred0[states])
    return decoded[:, :num_bits]


# -- benchmarks ----------------------------------------------------------------
def _turbo_llrs(code, rng, nb):
    msgs = rng.integers(0, 2, (nb, code.k)).astype(np.uint8)
    clean = 1.0 - 2.0 * np.stack([code.encode(m) for m in msgs])
    return 2.0 * clean + 1.5 * rng.standard_normal(clean.shape)


def test_turbo_throughput():
    """Fused SISO >= 2x and turbo ``decode_batch`` >= 1.8x, bit-identical."""
    rng = np.random.default_rng(15)
    code = TurboCode(K)
    llr = _turbo_llrs(code, rng, NB)
    siso_args = [rng.normal(0.0, 3.0, (NB, K)) for _ in range(3)]
    siso_args += [rng.normal(0.0, 3.0, (NB, 3)) for _ in range(2)]
    assert _same_bits(TurboCode._siso_batch(*siso_args), _ref_siso_batch(*siso_args))
    assert _same_bits(code.decode_batch(llr), _ref_turbo_decode_batch(code, llr))

    rounds = 1 if SMOKE else 3
    reps_siso, reps_dec = (2, 1) if SMOKE else (200, 10)
    t_siso_ref = _best_of(lambda: _ref_siso_batch(*siso_args), reps_siso, rounds)
    t_siso = _best_of(lambda: TurboCode._siso_batch(*siso_args), reps_siso, rounds)
    t_dec_ref = _best_of(lambda: _ref_turbo_decode_batch(code, llr), reps_dec, rounds)
    t_dec = _best_of(lambda: code.decode_batch(llr), reps_dec, rounds)
    r_siso, r_dec = t_siso_ref / t_siso, t_dec_ref / t_dec
    print_table(
        f"Turbo max-log-MAP, {NB} blocks x K={K}",
        ["call", "step-by-step (ms)", "fused (ms)", "speedup"],
        [
            ["_siso_batch", f"{t_siso_ref * 1e3:.3f}", f"{t_siso * 1e3:.3f}", f"{r_siso:.2f}x"],
            ["decode_batch", f"{t_dec_ref * 1e3:.2f}", f"{t_dec * 1e3:.2f}", f"{r_dec:.2f}x"],
        ],
    )
    _gauge("siso_ms_step", t_siso_ref * 1e3)
    _gauge("siso_ms_fused", t_siso * 1e3)
    _gauge("turbo_decode_ms_step", t_dec_ref * 1e3)
    _gauge("turbo_decode_ms_fused", t_dec * 1e3)
    if not SMOKE:
        assert r_siso >= 2.0, f"SISO speedup {r_siso:.2f}x below 2x"
        assert r_dec >= 1.8, f"turbo decode_batch speedup {r_dec:.2f}x below 1.8x"


@pytest.mark.parametrize("nb, nbits", [(3, K), (NB, K), (64, 260)])
def test_viterbi_throughput(nb, nbits):
    """Four-call ACS step: bit-identical, and no slower at 8 and 64 blocks."""
    rng = np.random.default_rng(16 + nb)
    code = UMTS_RATE_13
    msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
    clean = 1.0 - 2.0 * np.stack([code.encode(m) for m in msgs])
    llr = 2.0 * clean + 1.5 * rng.standard_normal(clean.shape)
    ref = _ref_viterbi_decode_batch(code, llr, nbits)
    assert _same_bits(code.decode_batch(llr, nbits), ref)

    reps, rounds = (1, 1) if SMOKE else (max(1, 3000 // (nb * nbits // 8)), 3)
    t_ref = _best_of(lambda: _ref_viterbi_decode_batch(code, llr, nbits), reps, rounds)
    t_new = _best_of(lambda: code.decode_batch(llr, nbits), reps, rounds)
    ratio = t_ref / t_new
    print_table(
        f"Viterbi K=9 rate 1/3, {nb} blocks x {nbits} bits",
        ["8-call ACS (ms)", "4-call ACS (ms)", "speedup"],
        [[f"{t_ref * 1e3:.3f}", f"{t_new * 1e3:.3f}", f"{ratio:.2f}x"]],
    )
    _gauge("viterbi_ms_8call", t_ref * 1e3, nb=str(nb))
    _gauge("viterbi_ms_4call", t_new * 1e3, nb=str(nb))
    if not SMOKE and nb >= NB:
        assert ratio >= 1.0, f"Viterbi at {nb} blocks slower than before ({ratio:.2f}x)"
