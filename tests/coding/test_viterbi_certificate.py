"""The exact ML certificate ahead of the Viterbi trellis.

``ConvolutionalCode.decode_batch`` returns, without running the trellis,
the message of every row whose hard decision is a codeword or one flip
from one and passes the Taipale-Pursley optimality test; the other rows
run the trellis as a compacted batch.  Every output here is compared bit
for bit with the step-by-step trellis kept verbatim in
``test_trellis_equivalence.py``.  The ``perf.viterbi.certified`` counter
shows how many rows the certificate settled, and the tests assert it
fires where it must, so a comparison cannot pass only because every row
went to the trellis.
"""

import numpy as np
import pytest

from repro import obs
from repro.coding import (
    CRC16,
    UMTS_RATE_12,
    UMTS_RATE_13,
    CodingScheme,
    ConvolutionalCode,
    TransportChain,
    rate_dematch,
)
from repro.coding.convolutional import _UNIT_ROUNDOFF, _certificate
from repro.coding.gf2 import generator_matrix, gf2_matmul

from tests.coding.test_trellis_equivalence import _ref_viterbi_decode_batch

pytestmark = pytest.mark.perf

CODES = {"rate12": UMTS_RATE_12, "rate13": UMTS_RATE_13, "k3": ConvolutionalCode((7, 5), 3)}


def _d_free(code, nbits):
    return _certificate(code.generators, code.k, nbits).d_free


def _decode_counted(code, received, nbits, soft=True):
    """``decode_batch`` output and the rows the certificate settled."""
    with obs.session() as (reg, _):
        out = code.decode_batch(received, nbits, soft=soft)
        return out, reg.value("perf.viterbi.certified", code=f"k{code.k}r1_{code.n_out}")


def _codewords(code, rng, nb, nbits):
    msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
    return msgs, np.stack([code.encode(m) for m in msgs])


def _with_errors(words, errors, rng):
    """Reliable LLRs of ``words`` with ``errors`` hard errors per row."""
    llr = (1.0 - 2.0 * words) * rng.uniform(2.0, 4.0, words.shape)
    for row in llr:
        row[rng.choice(row.size, errors, replace=False)] *= -1.0
    return llr


@pytest.mark.parametrize("nbits", [5, 56])
@pytest.mark.parametrize("errors", [0, 1, 2, "many"])
@pytest.mark.parametrize("rate", sorted(CODES))
def test_hard_errors_match_reference(rate, errors, nbits):
    code = CODES[rate]
    rng = np.random.default_rng(nbits + 3 * len(rate))
    nb = 8
    msgs, words = _codewords(code, rng, nb, nbits)
    count = words.shape[1] // 4 if errors == "many" else errors
    llr = _with_errors(words, count, rng)
    got, certified = _decode_counted(code, llr, nbits)
    assert np.array_equal(got, _ref_viterbi_decode_batch(code, llr, nbits))
    if errors in (0, 1):
        assert certified == nb
        assert np.array_equal(got, msgs)
    if errors == 2:
        # two flips from a codeword are never within one flip of one
        assert certified == 0


@pytest.mark.parametrize("rate", sorted(CODES))
def test_hard_input_certifies(rate):
    code = CODES[rate]
    rng = np.random.default_rng(11)
    msgs, words = _codewords(code, rng, 4, 56)
    received = words.copy()
    received[1:, 7] ^= 1  # one hard error in three rows
    got, certified = _decode_counted(code, received, 56, soft=False)
    assert certified == 4
    assert np.array_equal(got, msgs)
    assert np.array_equal(got, _ref_viterbi_decode_batch(code, received, 56, soft=False))
    assert np.array_equal(code.decode(received[1], 56), msgs[1])


@pytest.mark.parametrize("rate", sorted(CODES))
def test_quantised_llrs(rate):
    """{-1, 0, 1} LLRs: zeros count among the smallest reliabilities."""
    code = CODES[rate]
    rng = np.random.default_rng(12)
    nbits = 56
    d = _d_free(code, nbits)
    _, words = _codewords(code, rng, 4, nbits)
    clean = 1.0 - 2.0 * words
    # rows 0-1: d - 2 erasures where the codeword holds 0 (h unchanged)
    for row, word in zip(clean[:2], words[:2]):
        row[rng.choice(np.flatnonzero(word == 0), d - 2, replace=False)] = 0.0
    # row 2: also one erasure where it holds 1, so h has one hard error
    clean[2, rng.choice(np.flatnonzero(words[2] == 0), d - 3, replace=False)] = 0.0
    clean[2, np.flatnonzero(words[2] == 1)[0]] = 0.0
    # row 3: d erasures, the d smallest reliabilities sum to 0
    clean[3, rng.choice(clean.shape[1], d, replace=False)] = 0.0
    noise = rng.integers(-1, 2, (4, clean.shape[1])).astype(np.float64)
    llr = np.concatenate([clean, noise, np.zeros((1, clean.shape[1]))])
    got, certified = _decode_counted(code, llr, nbits)
    assert np.array_equal(got, _ref_viterbi_decode_batch(code, llr, nbits))
    assert certified == 3


def _punctured_chain(physical_bits):
    return TransportChain(CodingScheme.CONVOLUTIONAL, transport_block=40, physical_bits=physical_bits)


@pytest.mark.parametrize("physical_bits", [188, 150])
def test_punctured_chain(physical_bits):
    """De-matched LLRs hold a zero, and so a hard 0, per punctured symbol."""
    chain = _punctured_chain(physical_bits)
    punctured = chain.coded_bits - physical_bits
    rng = np.random.default_rng(physical_bits)
    msgs = rng.integers(0, 2, (8, 40)).astype(np.uint8)
    words = np.stack([chain.encode(m) for m in msgs])
    llr = (1.0 - 2.0 * words) * rng.uniform(2.0, 4.0, words.shape)
    llr[4:, 5] *= -1.0  # one hard error in four rows
    with obs.session() as (reg, _):
        out = chain.decode_batch(llr)
        certified = reg.value("perf.viterbi.certified", code="k9r1_3")
    soft = rate_dematch(chain._interleaver.deinterleave(llr), chain.coded_bits)
    assert np.all(np.count_nonzero(soft == 0.0, axis=1) == punctured)
    ref = _ref_viterbi_decode_batch(chain.conv_code, soft, 56)
    assert np.array_equal(out["bits"], ref[:, :40])
    assert np.array_equal(out["crc_ok"], CRC16.check_batch(ref))
    assert np.array_equal(out["bits"], msgs) and out["crc_ok"].all()
    # a row certifies when its hard decision is at most one flip from
    # the sent word and fewer than d_free = 18 zeros leave room for the bound
    sent = np.stack([chain.conv_code.encode(CRC16.attach(m)) for m in msgs])
    near = np.count_nonzero((soft < 0) != sent, axis=1) <= 1
    if punctured < 18:
        assert certified == np.count_nonzero(near) > 0
    else:
        assert certified == 0


def test_non_finite_rows_fall_back():
    chain = _punctured_chain(192)
    rng = np.random.default_rng(13)
    msgs = rng.integers(0, 2, (5, 40)).astype(np.uint8)
    words = np.stack([chain.encode(m) for m in msgs])
    llr = (1.0 - 2.0 * words) * rng.uniform(2.0, 4.0, words.shape)
    llr[1, 9] = np.inf
    llr[2, 9] = -np.inf
    llr[3, 9] = np.nan
    with np.errstate(invalid="ignore"), obs.session() as (reg, _):
        out = chain.decode_batch(llr)
        soft = rate_dematch(chain._interleaver.deinterleave(llr), chain.coded_bits)
        direct = chain.conv_code.decode_batch(soft, 56)
        ref = _ref_viterbi_decode_batch(chain.conv_code, soft, 56)
        certified = reg.value("perf.viterbi.certified", code="k9r1_3")
    assert np.array_equal(direct, ref)
    assert certified == 2 * 2  # rows 0 and 4, once per decode_batch call
    assert out["crc_ok"].tolist() == [True, False, False, False, True]
    assert np.array_equal(out["bits"][[0, 4]], msgs[[0, 4]])


@pytest.mark.parametrize("rate", sorted(CODES))
def test_optimality_bound_pair(rate):
    """|llr_j| just under the bound certifies; just over it falls back."""
    code = CODES[rate]
    rng = np.random.default_rng(14)
    nbits = 56
    d = _d_free(code, nbits)
    _, words = _codewords(code, rng, 1, nbits)
    clean = 1.0 - 2.0 * words[0]
    n = clean.size
    j = 40
    # the margin at sum|llr| <= (n - 1) + (d - 1); the bound is d - 1
    margin = 8 * (n + 1) * _UNIT_ROUNDOFF * (n - 1 + d - 1)
    for x, fires in [(d - 1 - 2 * margin, True), (d - 1 - margin / 2, False), (d - 0.5, False)]:
        llr = clean.copy()
        llr[j] *= -x
        got, certified = _decode_counted(code, llr[None, :], nbits)
        assert certified == int(fires), x
        assert np.array_equal(got, _ref_viterbi_decode_batch(code, llr[None, :], nbits))


def test_mixed_batch_runs_the_rest_as_one_batch():
    code = UMTS_RATE_13
    rng = np.random.default_rng(15)
    msgs, words = _codewords(code, rng, 8, 56)
    llr = _with_errors(words, 1, rng)
    llr[[1, 4, 6]] = 2.0 * (1.0 - 2.0 * words[[1, 4, 6]]) + 1.5 * rng.standard_normal((3, words.shape[1]))
    got, certified = _decode_counted(code, llr, 56)
    assert certified == 5
    assert np.array_equal(got, _ref_viterbi_decode_batch(code, llr, 56))


@pytest.mark.parametrize("rate, d_free", [("k3", 5), ("rate12", 12), ("rate13", 18)])
@pytest.mark.parametrize("nbits", [1, 56])
def test_certificate_tables(rate, d_free, nbits):
    code = CODES[rate]
    cert = _certificate(code.generators, code.k, nbits)
    assert cert.d_free == d_free
    # the generator replays the bit-serial encoder and R inverts it
    assert np.array_equal(cert.generator, generator_matrix(code.encode, nbits))
    eye = gf2_matmul(cert.generator, cert.right_inverse)
    assert np.array_equal(eye, np.eye(nbits, dtype=np.uint8))
    # every single flip has its own syndrome
    assert sorted(cert.single.values()) == list(range(code.encoded_length(nbits)))
