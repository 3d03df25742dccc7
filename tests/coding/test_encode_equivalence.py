"""Equivalence tests: generator-matrix transport encode == the per-bit chain.

``TransportChain.encode`` is one GF(2) product with a cached
``(transport_block, physical_bits)`` generator matrix, and
``Crc.compute``/``check`` are one product with a cached parity matrix
per message length.  Both are derived from the bit-serial encoders,
which rely on every stage being GF(2)-linear with a zero start state.
The per-bit implementation they replaced is kept verbatim below
(``_ref_*``): the bit-serial CRC, the convolutional and RSC/turbo
encoders, and the stage-by-stage chain encode.  Outputs must be
bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import CRC8, CRC12, CRC16, CRC24, CodingScheme, TransportChain
from repro.coding.gf2 import generator_matrix, gf2_matmul
from repro.coding.interleaving import rate_dematch, rate_match

pytestmark = pytest.mark.perf

ALL_CRCS = [CRC8, CRC12, CRC16, CRC24]


# -- the replaced per-bit implementation, verbatim ------------------------------
def _ref_crc_compute(crc, bits):
    bits = np.asarray(bits).astype(np.uint8).ravel()
    reg = 0
    top = 1 << (crc.width - 1)
    mask = (1 << crc.width) - 1
    for b in bits:
        fb = ((reg & top) != 0) ^ int(b)
        reg = (reg << 1) & mask
        if fb:
            reg ^= crc.poly
    out = np.empty(crc.width, dtype=np.uint8)
    for i in range(crc.width):
        out[i] = (reg >> (crc.width - 1 - i)) & 1
    return out


def _ref_crc_attach(crc, bits):
    bits = np.asarray(bits).astype(np.uint8).ravel()
    return np.concatenate([bits, _ref_crc_compute(crc, bits)])


def _ref_crc_check(crc, bits_with_crc):
    bits_with_crc = np.asarray(bits_with_crc).astype(np.uint8).ravel()
    if len(bits_with_crc) < crc.width:
        raise ValueError("message shorter than CRC width")
    msg = bits_with_crc[: -crc.width]
    parity = bits_with_crc[-crc.width :]
    return bool(np.array_equal(_ref_crc_compute(crc, msg), parity))


def _ref_conv_encode(code, bits):
    bits = np.asarray(bits).astype(np.uint8).ravel()
    tail = np.zeros(code.k - 1, dtype=np.uint8)
    stream = np.concatenate([bits, tail])
    out = np.empty(len(stream) * code.n_out, dtype=np.uint8)
    state = 0
    for i, b in enumerate(stream):
        out[i * code.n_out : (i + 1) * code.n_out] = code.outputs[state, b]
        state = code.next_state[state, b]
    return out


def _ref_rsc_step(state, bit):
    s1 = (state >> 2) & 1
    s2 = (state >> 1) & 1
    s3 = state & 1
    fb = bit ^ s2 ^ s3
    parity = fb ^ s1 ^ s3
    nxt = (fb << 2) | (s1 << 1) | s2
    return nxt, parity


def _ref_tail_bit(state):
    s2 = (state >> 1) & 1
    s3 = state & 1
    return s2 ^ s3


def _ref_encode_rsc(bits):
    state = 0
    par = np.empty(len(bits), dtype=np.uint8)
    for i, b in enumerate(bits):
        state, p = _ref_rsc_step(state, int(b))
        par[i] = p
    tail_sys = np.empty(3, dtype=np.uint8)
    tail_par = np.empty(3, dtype=np.uint8)
    for i in range(3):
        tb = _ref_tail_bit(state)
        tail_sys[i] = tb
        state, p = _ref_rsc_step(state, tb)
        tail_par[i] = p
    assert state == 0, "termination failed"
    return par, tail_sys, tail_par


def _ref_turbo_encode(turbo, bits):
    bits = np.asarray(bits).astype(np.uint8).ravel()
    if len(bits) != turbo.k:
        raise ValueError(f"expected {turbo.k} bits, got {len(bits)}")
    z1, t1s, t1p = _ref_encode_rsc(bits)
    interleaved = bits[turbo.interleaver]
    z2, t2s, t2p = _ref_encode_rsc(interleaved)
    body = np.empty(3 * turbo.k, dtype=np.uint8)
    body[0::3] = bits
    body[1::3] = z1
    body[2::3] = z2
    tail = np.empty(12, dtype=np.uint8)
    tail[0::2][:3] = t1s
    tail[1::2][:3] = t1p
    tail[6::2] = t2s
    tail[7::2] = t2p
    return np.concatenate([body, tail])


def _ref_chain_encode(chain, bits):
    bits = np.asarray(bits).astype(np.uint8).ravel()
    if len(bits) != chain.transport_block:
        raise ValueError(
            f"expected {chain.transport_block} bits, got {len(bits)}"
        )
    msg = _ref_crc_attach(chain.crc, bits) if chain.crc else bits
    if chain.scheme is CodingScheme.NONE:
        coded = msg
    elif chain.scheme is CodingScheme.CONVOLUTIONAL:
        coded = _ref_conv_encode(chain.conv_code, msg)
    else:
        coded = _ref_turbo_encode(chain.turbo, msg)
    matched = rate_match(coded, chain.physical_bits)
    return chain._interleaver.interleave(matched)


# -- transport chain --------------------------------------------------------------
def _chain(scheme, transport_block, physical):
    """``physical``: ``None`` (unset), ``"punct"`` (-20 %) or ``"rep"`` (+30 %)."""
    chain = TransportChain(scheme, transport_block=transport_block)
    if physical is None:
        return chain
    scale = 0.8 if physical == "punct" else 1.3
    return TransportChain(
        scheme,
        transport_block=transport_block,
        physical_bits=int(chain.coded_bits * scale),
    )


@pytest.mark.parametrize("physical", [None, "punct", "rep"])
@pytest.mark.parametrize("scheme", list(CodingScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("transport_block", [40, 101])
def test_chain_encode_matches_reference(scheme, transport_block, physical):
    chain = _chain(scheme, transport_block, physical)
    rng = np.random.default_rng(transport_block)
    blocks = np.vstack(
        [
            np.zeros(transport_block, dtype=np.uint8),
            np.ones(transport_block, dtype=np.uint8),
            rng.integers(0, 2, (40, transport_block)).astype(np.uint8),
        ]
    )
    for block in blocks:
        got = chain.encode(block)
        ref = _ref_chain_encode(chain, block)
        assert got.dtype == ref.dtype == np.uint8
        np.testing.assert_array_equal(got, ref)
    assert chain.generator.shape == (transport_block, chain.physical_bits)
    # a stack of blocks encodes in one call, row for row
    stacked = chain.encode(blocks)
    np.testing.assert_array_equal(
        stacked, np.stack([chain.encode(block) for block in blocks])
    )
    np.testing.assert_array_equal(
        chain.encode(blocks.reshape(6, 7, transport_block)),
        stacked.reshape(6, 7, chain.physical_bits),
    )


def test_chain_encode_validates_length():
    chain = TransportChain(CodingScheme.CONVOLUTIONAL, transport_block=40)
    with pytest.raises(ValueError):
        chain.encode(np.zeros(39, dtype=np.uint8))
    with pytest.raises(ValueError, match="last axis"):
        chain.encode(np.zeros((40, 39), dtype=np.uint8))


def test_chain_without_crc_matches_reference():
    chain = TransportChain(CodingScheme.TURBO, transport_block=64, crc=None)
    block = np.random.default_rng(3).integers(0, 2, 64).astype(np.uint8)
    np.testing.assert_array_equal(chain.encode(block), _ref_chain_encode(chain, block))


def test_generator_shared_per_design_and_read_only():
    a = TransportChain(CodingScheme.TURBO, transport_block=40, physical_bits=150)
    b = TransportChain(CodingScheme.TURBO, transport_block=40, physical_bits=150)
    c = TransportChain(CodingScheme.TURBO, transport_block=40, physical_bits=151)
    assert a.generator is b.generator
    assert a.generator is not c.generator
    assert not a.generator.flags.writeable


def test_generator_matrix_rejects_affine_encoder():
    with pytest.raises(ValueError, match="not linear"):
        generator_matrix(lambda bits: np.concatenate([bits, [1]]), 4)


# -- CRC --------------------------------------------------------------------------
@pytest.mark.parametrize("crc", ALL_CRCS, ids=lambda c: c.name)
@given(bits=st.lists(st.integers(0, 1), min_size=0, max_size=300))
@settings(max_examples=60, deadline=None)
def test_crc_matches_bit_serial(crc, bits):
    bits = np.array(bits, dtype=np.uint8)
    ref = _ref_crc_compute(crc, bits)
    np.testing.assert_array_equal(crc.compute(bits), ref)
    frame = crc.attach(bits)
    np.testing.assert_array_equal(frame, _ref_crc_attach(crc, bits))
    assert crc.check(frame) is True
    if len(frame):
        bad = frame.copy()
        bad[len(bad) // 2] ^= 1
        assert crc.check(bad) is _ref_crc_check(crc, bad)


@pytest.mark.parametrize("crc", ALL_CRCS, ids=lambda c: c.name)
@given(
    rows=st.integers(0, 6),
    length=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_crc_batch_matches_per_row(crc, rows, length, seed):
    rng = np.random.default_rng(seed)
    frames = np.array(
        [_ref_crc_attach(crc, rng.integers(0, 2, length)) for _ in range(rows)],
        dtype=np.uint8,
    ).reshape(rows, length + crc.width)
    # corrupt the odd rows
    frames[1::2] ^= (rng.random(frames[1::2].shape) < 0.05).astype(np.uint8)
    parity = crc.compute_batch(frames[:, :length])
    for i in range(rows):
        np.testing.assert_array_equal(parity[i], _ref_crc_compute(crc, frames[i, :length]))
    ok = crc.check_batch(frames)
    assert ok.dtype == bool and ok.shape == (rows,)
    assert ok.tolist() == [_ref_crc_check(crc, f) for f in frames]


def test_crc_check_rejects_short_message():
    with pytest.raises(ValueError):
        CRC16.check(np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        CRC16.check_batch(np.zeros((2, 8), dtype=np.uint8))


def _ref_decode_batch(chain, llr):
    llr = np.asarray(llr, dtype=np.float64)
    deint = chain._interleaver.deinterleave(llr)
    soft = rate_dematch(deint, chain._coded_bits)
    if chain.scheme is CodingScheme.NONE:
        msg = (soft < 0).astype(np.uint8)
    elif chain.scheme is CodingScheme.CONVOLUTIONAL:
        msg = chain.conv_code.decode_batch(soft, chain._msg_bits, soft=True)
    else:
        msg = chain.turbo.decode_batch(soft)
    crc_ok = None
    if chain.crc:
        crc_ok = np.fromiter(
            (_ref_crc_check(chain.crc, row) for row in msg), dtype=bool, count=len(msg)
        )
        msg = msg[:, : -chain.crc.width]
    return {"bits": msg, "crc_ok": crc_ok}


@pytest.mark.parametrize("scheme", list(CodingScheme), ids=lambda s: s.value)
def test_decode_batch_crc_matches_reference(scheme):
    """``decode_batch``'s one-call CRC check == the bit-serial check per row."""
    chain = TransportChain(scheme, transport_block=40)
    rng = np.random.default_rng(11)
    coded = np.stack([chain.encode(b) for b in rng.integers(0, 2, (12, 40))])
    # clean even rows, hopeless odd rows: both CRC outcomes occur
    sigma = np.where(np.arange(12) % 2, 3.0, 0.2)[:, None]
    llr = (1.0 - 2.0 * coded) + sigma * rng.standard_normal(coded.shape)
    got, ref = chain.decode_batch(llr), _ref_decode_batch(chain, llr)
    assert got["crc_ok"].dtype == bool
    assert got["crc_ok"].any() and not got["crc_ok"].all()
    np.testing.assert_array_equal(got["crc_ok"], ref["crc_ok"])
    np.testing.assert_array_equal(got["bits"], ref["bits"])


def test_gf2_matmul_is_exact_for_long_blocks():
    rng = np.random.default_rng(2)
    matrix = rng.integers(0, 2, (5000, 7)).astype(np.float32)
    bits = rng.integers(0, 2, (3, 5000)).astype(np.uint8)
    ref = (bits.astype(np.int64) @ matrix.astype(np.int64)) & 1
    np.testing.assert_array_equal(gf2_matmul(bits, matrix), ref)
