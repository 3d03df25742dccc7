"""Equivalence tests: the fused trellis kernels == the step-by-step ones.

``TurboCode._siso_batch`` runs the max-log-MAP forward and backward
recursions as one fused butterfly loop (backward states relabelled by
3-bit reversal), and ``ConvolutionalCode.decode_batch`` runs each
add-compare-select step as four calls over state-major arrays and a
candidate table gathered ahead of the loop.  ``test_batch_equivalence.py`` only
compares batched with scalar decoding, which share one kernel, so it
cannot catch a kernel change.  The kernels they replaced are kept
verbatim below (``_ref_*``); every output must match them bit for bit
(compared as float64 bit patterns where the output is a float), on
noisy, quantised ``{-1, 0, 1}``, all-zero and saturating inputs.

The SISO builds its branch table from four values per step, ``A + B``,
``A - B``, ``-(A - B)`` and ``-(A + B)``, where the reference forms
``(-A) + B`` and ``(-A) + (-B)``; the two differ only in the sign of a
zero sum.  The turbo grids add two input kinds for that: ``balanced``
(``la + ls == +-lp`` on many steps, so ``A - B`` or ``A + B`` is exactly
0) and ``non_finite`` (scattered ``+-inf`` and ``nan``: outputs that are
not NaN match as bit patterns, NaN positions are equal).
"""

import numpy as np
import pytest

from repro.coding import UMTS_RATE_12, UMTS_RATE_13, ConvolutionalCode, TurboCode
from repro.coding.turbo import _NEXT, _NSTATES, _PAR, EXT_SCALE

pytestmark = pytest.mark.perf


# -- the replaced step-by-step kernels, verbatim --------------------------------
_PRED_FLAT = np.empty((_NSTATES, 2), dtype=np.int64)
_pred_count = np.zeros(_NSTATES, dtype=np.int64)
for _s in range(_NSTATES):
    for _b in (0, 1):
        _ns = int(_NEXT[_s, _b])
        _PRED_FLAT[_ns, _pred_count[_ns]] = 2 * _s + _b
        _pred_count[_ns] += 1


def _ref_siso_batch(lsys, lpar, lapr, tail_sys, tail_par):
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

    alpha = np.full((total + 1, nb, _NSTATES), -np.inf)
    alpha[0, :, 0] = 0.0
    p0 = _PRED_FLAT[:, 0]
    p1 = _PRED_FLAT[:, 1]
    for t in range(total):
        cand = (alpha[t][:, :, None] + gammas[t]).reshape(nb, 2 * _NSTATES)
        # gather-max over the two (state, bit) predecessors; exactly
        # the scatter-max over _NEXT, state by state
        np.maximum(cand[:, p0], cand[:, p1], out=alpha[t + 1])

    beta = np.full((total + 1, nb, _NSTATES), -np.inf)
    beta[total, :, 0] = 0.0  # terminated
    for t in range(total - 1, -1, -1):
        # beta[t, s] = max_b gamma[t,s,b] + beta[t+1, next(s,b)]
        beta[t] = np.max(gammas[t] + beta[t + 1][:, _NEXT], axis=2)

    # LLR for data steps only, all steps at once
    m = alpha[:k, :, :, None] + gammas[:k] + beta[1 : k + 1][:, :, _NEXT]
    llr = m[..., 0].max(axis=2) - m[..., 1].max(axis=2)  # (k, nb)
    # extrinsic: remove channel systematic and a priori
    return llr.T - lsys - lapr


def _ref_turbo_decode_batch(code, llr, return_iterations=False):
    llr = np.asarray(llr, dtype=np.float64)
    nb = llr.shape[0]
    k = code.k
    body = llr[:, : 3 * k]
    tail = llr[:, 3 * k :]
    lsys = np.ascontiguousarray(body[:, 0::3])
    lz1 = np.ascontiguousarray(body[:, 1::3])
    lz2 = np.ascontiguousarray(body[:, 2::3])
    t1s = tail[:, 0:6:2]
    t1p = tail[:, 1:6:2]
    t2s = tail[:, 6:12:2]
    t2p = tail[:, 7:12:2]

    lsys_i = lsys[:, code.interleaver]
    apr1 = np.zeros((nb, k))
    history = []
    for _ in range(code.iterations):
        ext1 = _ref_siso_batch(lsys, lz1, apr1, t1s, t1p)
        ext1 *= EXT_SCALE
        apr2 = ext1[:, code.interleaver]
        ext2 = _ref_siso_batch(lsys_i, lz2, apr2, t2s, t2p)
        ext2 *= EXT_SCALE
        ext2_de = ext2[:, code.deinterleaver]
        apr1 = ext2_de
        if return_iterations:
            post = lsys + ext1 + ext2_de
            history.append((post < 0).astype(np.uint8))
    posterior = lsys + apr1 + ext1
    bits = (posterior < 0).astype(np.uint8)
    if return_iterations:
        return bits, history
    return bits


def _ref_viterbi_decode_batch(code, received, num_bits, soft=True):
    received = np.asarray(received)
    total = num_bits + code.k - 1
    nb = received.shape[0]
    llr = code._to_llr(received, soft).reshape(nb, total, code.n_out)
    ns = code.num_states
    half = ns // 2
    quarter = half // 2
    # the butterfly tables the step-by-step kernel took from the code
    states_all = np.arange(ns)
    pred0 = (states_all << 1) & (ns - 1)
    pred1 = pred0 | 1
    p0idx, p1idx = code._pred_words[:ns], code._pred_words[ns:]

    llr_t = np.ascontiguousarray(llr.transpose(1, 0, 2)).reshape(
        total * nb, code.n_out
    )
    corr = (llr_t @ code._pat.T).reshape(total, nb, code._pat.shape[0])

    metrics = np.full((nb, 2, half), -np.inf)
    metrics.reshape(nb, ns)[:, 0] = 0.0  # trellis starts in state 0
    # choice[t, b, s'] = True when the odd-predecessor branch survives
    choice = np.empty((total, nb, ns), dtype=bool)
    choice_steps = choice.reshape(total, nb, 2, half)
    m_even = np.empty((nb, 2, quarter))
    m_odd = np.empty((nb, 2, quarter))
    cand0 = np.empty((nb, ns))
    cand1 = np.empty((nb, ns))
    me = m_even.reshape(nb, half)
    mo = m_odd.reshape(nb, half)
    c0v = cand0.reshape(nb, 2, half)
    c1v = cand1.reshape(nb, 2, half)
    for t in range(total):
        # state s = h*half + j is even iff j is even; predecessor
        # metric arrays are indexed by s >> 1 = h*quarter + j//2
        np.copyto(m_even, metrics[:, :, 0::2])
        np.copyto(m_odd, metrics[:, :, 1::2])
        ct = corr[t]
        np.take(ct, p0idx, axis=1, out=cand0)
        np.take(ct, p1idx, axis=1, out=cand1)
        c0v += me[:, None, :]
        c1v += mo[:, None, :]
        np.greater(c1v, c0v, out=choice_steps[t])
        np.maximum(c0v, c1v, out=metrics)

    # traceback from state 0 (terminated trellis), whole batch at once
    states = np.zeros(nb, dtype=np.int64)
    rows = np.arange(nb)
    in_bit = states_all >> (code.k - 2)
    decoded = np.empty((nb, total), dtype=np.uint8)
    for t in range(total - 1, -1, -1):
        decoded[:, t] = in_bit[states]
        take1 = choice[t, rows, states]
        states = np.where(take1, pred1[states], pred0[states])
    return decoded[:, :num_bits]


# -- inputs ------------------------------------------------------------------
KINDS = ["noisy", "quantised", "all_zero", "saturating"]
TURBO_KINDS = KINDS + ["non_finite", "balanced"]


def _llrs(kind, rng, shape, clean=None):
    """Test LLRs of one kind; ``clean`` is an optional +-1 codeword.

    ``balanced`` draws noisy LLRs; the caller ties parity to systematic.
    ``non_finite`` puts ``+-inf``/``nan`` at about 2 % of the entries of
    the even rows and leaves the odd rows finite.
    """
    if kind == "all_zero":
        return np.zeros(shape)
    if kind == "quantised":
        return rng.integers(-1, 2, shape).astype(np.float64)
    if kind == "saturating":
        return 30.0 * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    base = 2.0 * clean if clean is not None else 0.0
    llr = base + 1.5 * rng.standard_normal(shape)
    if kind == "non_finite":
        hit = rng.random(shape) < 0.02
        hit[1::2] = False
        llr[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
    return llr


def _tie(par, sys_, rng):
    """Set ``par`` to ``+sys_`` or ``-sys_`` at about 60 % of the entries."""
    hit = rng.random(par.shape) < 0.6
    sign = np.where(rng.random(par.shape) < 0.5, 1.0, -1.0)
    par[hit] = (sign * sys_)[hit]
    return hit


def _bits_equal(a, b):
    """Same bit patterns; float NaNs need only share their positions."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == np.float64:
        nan = np.isnan(a)
        return np.array_equal(nan, np.isnan(b)) and np.array_equal(
            a[~nan].view(np.uint64), b[~nan].view(np.uint64)
        )
    return np.array_equal(a, b)


# -- turbo ---------------------------------------------------------------------
@pytest.mark.parametrize("kind", TURBO_KINDS)
@pytest.mark.parametrize("nb", [1, 3, 8])
@pytest.mark.parametrize("k", [40, 56, 159, 160, 530])
def test_siso_matches_reference(k, nb, kind):
    rng = np.random.default_rng(1000 * k + 10 * nb + TURBO_KINDS.index(kind))
    args = [_llrs(kind, rng, (nb, k)) for _ in range(3)]
    args += [_llrs(kind, rng, (nb, 3)) for _ in range(2)]
    if kind == "balanced":  # A = 0.5 (la + ls) and B = 0.5 lp tie: A == +-B
        lsys, lpar, lapr, tail_sys, tail_par = args
        assert _tie(lpar, lapr + lsys, rng).mean() > 0.4
        _tie(tail_par, tail_sys, rng)
    with np.errstate(invalid="ignore"):
        got, ref = TurboCode._siso_batch(*args), _ref_siso_batch(*args)
    assert _bits_equal(got, ref)
    if kind == "non_finite" and nb > 1:
        assert np.isfinite(ref[1::2]).all() and not np.isfinite(ref[0::2]).all()


def test_siso_empty_batch():
    args = [np.zeros((0, 56))] * 3 + [np.zeros((0, 3))] * 2
    got = TurboCode._siso_batch(*args)
    assert got.shape == (0, 56)
    assert _bits_equal(got, _ref_siso_batch(*args))


def _tie_parity(code, llr, rng):
    """Tie both constituents' parity LLRs to their systematic input."""
    k = code.k
    lsys = llr[:, 0 : 3 * k : 3]
    tail = llr[:, 3 * k :]
    for z, x in ((1, lsys), (2, lsys[:, code.interleaver])):
        par = llr[:, z : 3 * k : 3].copy()
        assert _tie(par, x, rng).mean() > 0.4
        llr[:, z : 3 * k : 3] = par
    for i in (0, 6):  # (x, z) pairs of each constituent's tail
        par = tail[:, i + 1 : i + 6 : 2].copy()
        _tie(par, tail[:, i : i + 6 : 2], rng)
        tail[:, i + 1 : i + 6 : 2] = par


@pytest.mark.parametrize("kind", TURBO_KINDS)
@pytest.mark.parametrize("nb", [1, 3, 8])
@pytest.mark.parametrize("k", [40, 56, 159, 160, 530])
def test_turbo_decode_batch_matches_reference(k, nb, kind):
    code = TurboCode(k, iterations=3 if k > 160 else 6)
    rng = np.random.default_rng(7 * k + nb + 100 * TURBO_KINDS.index(kind))
    msgs = rng.integers(0, 2, (nb, k)).astype(np.uint8)
    clean = 1.0 - 2.0 * np.stack([code.encode(m) for m in msgs])
    llr = _llrs(kind, rng, clean.shape, clean)
    if kind == "balanced":  # the first iteration's A == +-B, a priori 0
        _tie_parity(code, llr, rng)
    with np.errstate(invalid="ignore"):
        got, ref = code.decode_batch(llr), _ref_turbo_decode_batch(code, llr)
        bits, history = code.decode_batch(llr, return_iterations=True)
        ref_bits, ref_history = _ref_turbo_decode_batch(code, llr, return_iterations=True)
    assert _bits_equal(got, ref)
    assert _bits_equal(bits, ref_bits)
    assert len(history) == len(ref_history) == code.iterations
    for h, r in zip(history, ref_history):
        assert _bits_equal(h, r)


def test_siso_ties_and_start_states():
    """All-zero input: every metric ties from the -inf start states on."""
    z = np.zeros((4, 56))
    zt = np.zeros((4, 3))
    out = TurboCode._siso_batch(z, z, z, zt, zt)
    assert _bits_equal(out, _ref_siso_batch(z, z, z, zt, zt))
    assert np.all(out == 0.0)


# -- Viterbi -------------------------------------------------------------------
CODES = {"rate12": UMTS_RATE_12, "rate13": UMTS_RATE_13, "k3": ConvolutionalCode((7, 5), 3)}


@pytest.mark.parametrize("kind", KINDS + ["hard"])
@pytest.mark.parametrize("nb", [1, 3, 8])
@pytest.mark.parametrize("nbits", [1, 5, 56, 64])
@pytest.mark.parametrize("rate", sorted(CODES))
def test_viterbi_matches_reference(rate, nbits, nb, kind):
    code = CODES[rate]
    rng = np.random.default_rng(nbits * 31 + nb + 7 * len(kind))
    msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
    enc = np.stack([code.encode(m) for m in msgs])
    if kind == "hard":
        flips = (rng.random(enc.shape) < 0.05).astype(np.uint8)
        received, soft = enc ^ flips, False
    else:
        received, soft = _llrs(kind, rng, enc.shape, 1.0 - 2.0 * enc), True
    got = code.decode_batch(received, nbits, soft=soft)
    assert _bits_equal(got, _ref_viterbi_decode_batch(code, received, nbits, soft=soft))
