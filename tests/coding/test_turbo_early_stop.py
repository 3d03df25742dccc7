"""CRC-aided early stopping of the batched turbo decoder.

``TurboCode.decode_batch(llr, stop=...)`` retires a row at the first
iteration >= 2 whose hard decision repeats the previous iteration's and
passes ``stop`` (the transport CRC, when ``TransportChain`` drives it).
A row that is never retired runs every iteration on the same floats as
``stop=None``; the ``perf.turbo.iterations`` counter reports the
iterations run, summed over blocks.  Compaction changes the batch size
from one iteration to the next, and the SISO keeps one cached
branch-table index per batch size; one test retires a row per
iteration so the batch passes through every size from 8 down to 1.
"""

import numpy as np
import pytest

from repro import obs
from repro.coding import CRC16, CodingScheme, TransportChain, TurboCode

pytestmark = pytest.mark.perf


def _never(dec):
    return np.zeros(len(dec), dtype=bool)


def _iterations_run(fn, k):
    """``fn()`` and the ``perf.turbo.iterations`` it counted at block length ``k``."""
    with obs.session() as (reg, _):
        out = fn()
        return out, reg.value("perf.turbo.iterations", k=str(k))


def _noisy_blocks(code, n, seed):
    """``n`` CRC-16 protected code blocks over BPSK/AWGN of rising noise."""
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, (n, code.k - CRC16.width)).astype(np.uint8)
    words = np.stack([code.encode(CRC16.attach(m)) for m in msgs])
    sigma = np.linspace(0.7, 1.6, n)[:, None]
    return 2.0 * ((1.0 - 2.0 * words) + sigma * rng.standard_normal(words.shape)) / sigma**2


def _expected_stop(history):
    """1-based iteration the rule retires a row at, or ``None`` when it runs them all."""
    for it in range(1, len(history) - 1):
        if np.array_equal(history[it], history[it - 1]) and CRC16.check(history[it]):
            return it + 1
    return None


@pytest.mark.parametrize("k", [56, 260])
@pytest.mark.parametrize("kind", ["noise", "saturating"])
def test_never_passing_stop_matches_full_decode(k, kind):
    """A row ``stop`` never passes decodes bit for bit like ``stop=None``."""
    code = TurboCode(k)
    rng = np.random.default_rng(k)
    n = code.encoded_length
    if kind == "noise":
        llr = rng.standard_normal((6, n))
    else:
        words = np.stack([code.encode(rng.integers(0, 2, k)) for _ in range(3)])
        llr = 30.0 * np.concatenate(
            [1.0 - 2.0 * words, 1.0 - 2.0 * rng.integers(0, 2, (3, n))]
        )
    calls = []

    def never(dec):
        calls.append(len(dec))
        return _never(dec)

    np.testing.assert_array_equal(
        code.decode_batch(llr, stop=never), code.decode_batch(llr)
    )
    if kind == "saturating":
        assert calls  # converged rows repeat, so the rule was consulted


def test_row_retires_at_first_repeated_crc_pass():
    code = TurboCode(56)
    llr = _noisy_blocks(code, 48, seed=3)
    full, history = code.decode_batch(llr, return_iterations=True)
    bits, total = _iterations_run(
        lambda: code.decode_batch(llr, stop=CRC16.check_batch), 56
    )
    stops = []
    for i, row in enumerate(llr):
        at = _expected_stop([h[i] for h in history])
        stops.append(at)
        np.testing.assert_array_equal(bits[i], full[i] if at is None else history[at - 1][i])
        _, run = _iterations_run(
            lambda: code.decode_batch(row[None], stop=CRC16.check_batch), 56
        )
        assert run == (at or code.iterations)
    assert total == sum(at or code.iterations for at in stops)
    # both outcomes and a retirement after iteration 2 occur
    assert {2, None} <= set(stops) and len(set(stops)) >= 3


def test_mixed_batch_equals_one_row_decodes():
    """Rows retiring at iterations 2 and 3 and a row running all 6, in one batch."""
    chain = TransportChain(CodingScheme.TURBO, transport_block=40)
    rng = np.random.default_rng(5)
    msgs = rng.integers(0, 2, (60, 40)).astype(np.uint8)
    coded = np.stack([chain.encode(m) for m in msgs])
    sigma = np.linspace(0.7, 1.6, 60)[:, None]
    llr = 2.0 * ((1.0 - 2.0 * coded) + sigma * rng.standard_normal(coded.shape)) / sigma**2
    runs = [_iterations_run(lambda: chain.decode(row), 56)[1] for row in llr]
    picks = [runs.index(6), runs.index(2), runs.index(3)]
    picks += [runs.index(n, i + 1) for n, i in zip((3, 2, 6), picks[::-1])]
    batch = llr[picks]
    out, total = _iterations_run(lambda: chain.decode_batch(batch), 56)
    assert total == sum(runs[i] for i in picks) == 22
    for i, row in enumerate(batch):
        one = chain.decode(row)
        np.testing.assert_array_equal(out["bits"][i], one["bits"])
        assert bool(out["crc_ok"][i]) == one["crc_ok"]
    assert out["crc_ok"][1:5].all()


def test_one_retirement_per_iteration_visits_every_batch_size():
    """A ``stop`` passing only the first candidate shrinks the batch 8, 7, ..., 1."""
    code = TurboCode(56, iterations=9)
    rng = np.random.default_rng(9)
    words = np.stack([code.encode(rng.integers(0, 2, 56)) for _ in range(8)])
    llr = 2.0 * (1.0 - 2.0 * words) + 0.5 * rng.standard_normal(words.shape)
    full, history = code.decode_batch(llr, return_iterations=True)
    assert all(np.array_equal(h, full) for h in history)  # settled at iteration 1

    def first_only(dec):
        ok = np.zeros(len(dec), dtype=bool)
        ok[0] = True
        return ok

    bits, total = _iterations_run(lambda: code.decode_batch(llr, stop=first_only), 56)
    np.testing.assert_array_equal(bits, full)
    # rows retire after iterations 2, 3, ..., 8; the last runs all 9
    assert total == sum(range(2, 10))


def test_all_nan_row_fails_crc_with_zero_bits():
    chain = TransportChain(CodingScheme.TURBO, transport_block=40)
    msg = np.random.default_rng(8).integers(0, 2, 40).astype(np.uint8)
    clean = 5.0 * (1.0 - 2.0 * chain.encode(msg))
    llr = np.stack([clean, np.full(chain.physical_bits, np.nan)])
    with np.errstate(invalid="ignore"):
        out = chain.decode_batch(llr)
    assert out["crc_ok"].tolist() == [True, False]
    np.testing.assert_array_equal(out["bits"][0], msg)
    assert not out["bits"][1].any()


def test_stop_with_return_iterations_rejected():
    code = TurboCode(56)
    with pytest.raises(ValueError):
        code.decode_batch(
            np.zeros((1, code.encoded_length)), return_iterations=True, stop=_never
        )


def test_single_iteration_never_calls_stop():
    code = TurboCode(56, iterations=1)
    llr = 30.0 * (1.0 - 2.0 * code.encode(np.zeros(56, dtype=np.uint8)))

    def stop(dec):
        raise AssertionError("stop called with one iteration")

    np.testing.assert_array_equal(
        code.decode_batch(llr[None], stop=stop), code.decode_batch(llr[None])
    )
