"""Property tests: the batched MF-TDMA front end == the scalar path.

``TdmaModem.receive`` is a one-row view of ``receive_batch`` and
``transmit`` of ``transmit_batch``, so there is one kernel.  What can
still break the contract is batch-shape dependence inside it: an FFT
size that follows the stack instead of the row, a padded strobe grid
that leaks into a row's valid range, a reduction that reassociates for
``C > 1``.  So a C-row call is compared against C one-row calls, which
must be **float-identical**.

The kernel is also pinned against the per-carrier implementation it
replaced, kept verbatim below (``_ref_*``): the burst modem, the
timing helpers it called, and the ground-side multiplexer loop.  Two
exceptions: the UW search, where the reference computes it in the
direct form the kernel defines (``_uw_metric_direct``) and the
verbatim FFT form (``_uw_metric_fft``) is held to the same decisions
and a last-bit tolerance on ``uw_metric``; and the multiplexer, a
polyphase synthesis bank held within ``1e-11`` of the peak of the
per-channel loop (``_ref_multiplex``), with exact checks on silent and
empty stacks.
"""

import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from repro.dsp.carrier import carrier_lock_metric, data_aided_phase, frequency_estimate
from repro.dsp.demux import multiplex_carriers
from repro.dsp.filters import design_lowpass, upsample
from repro.dsp.modem import estimate_snr_m2m4
from repro.dsp.tdma import BurstFormat, BurstSyncError, TdmaModem
from repro.dsp.timing import GardnerLoop, fold_timing_offset

pytestmark = pytest.mark.perf

BURST = BurstFormat(preamble=16, uw=16, payload=48)
#: a burst past ``TdmaModem.AUTO_THRESHOLD`` symbols, received by the Gardner loop
LONG_BURST = BurstFormat(preamble=16, uw=16, payload=496)
#: the burst format that selects each timing recovery
TIMING_BURSTS = {"oerder-meyr": BURST, "gardner": LONG_BURST}


# -- the replaced per-carrier implementation, verbatim ------------------------
def _ref_cubic_interpolate(x, base, mu):
    x = np.asarray(x)
    base = np.asarray(base, dtype=np.int64)
    mu = np.asarray(mu, dtype=np.float64)
    n = len(x)
    base = np.clip(base, 1, n - 3)
    xm1 = x[base - 1]
    x0 = x[base]
    x1 = x[base + 1]
    x2 = x[base + 2]
    c0 = x0
    c1 = x1 - xm1 / 3.0 - x0 / 2.0 - x2 / 6.0
    c2 = (xm1 + x1) / 2.0 - x0
    c3 = (x2 - xm1) / 6.0 + (x0 - x1) / 2.0
    return ((c3 * mu + c2) * mu + c1) * mu + c0


def _ref_oerder_meyr_recover(x, sps):
    x = np.asarray(x)
    if len(x) < 4 * sps:
        raise ValueError("burst too short for a timing estimate")
    n = np.arange(len(x))
    sq = np.abs(x) ** 2
    line = np.sum(sq * np.exp(-2j * np.pi * n / sps))
    tau = fold_timing_offset(-sps / (2.0 * np.pi) * np.angle(line), sps)
    positions = np.arange(tau, len(x) - 2.0, sps)
    base = np.floor(positions).astype(np.int64)
    mu = positions - base
    return _ref_cubic_interpolate(x, base, mu), tau


def _ref_timing_lock_metric(x, sps):
    x = np.asarray(x)
    n = np.arange(len(x))
    sq = np.abs(x) ** 2
    c0 = float(np.sum(sq))
    if c0 <= 0.0:
        return 0.0
    c1 = np.sum(sq * np.exp(-2j * np.pi * n / sps))
    return float(np.abs(c1) / c0)


def _ref_recover_timing(self, mf):
    mode = "gardner" if self.burst.total > self.AUTO_THRESHOLD else "oerder-meyr"
    if mode == "oerder-meyr":
        syms, tau = _ref_oerder_meyr_recover(mf, self.sps)
        return syms, {"timing_mode": mode, "tau": tau}
    loop = GardnerLoop(sps=self.sps, bn_ts=0.02)
    syms = loop.process(mf)
    return syms, {
        "timing_mode": mode,
        "tau": loop.tau,
        "tau_history": np.asarray(loop.tau_history),
    }


def _uw_metric_direct(syms, uw):
    """The UW search's correlation and window energy in direct form, one
    shifted slice per UW tap in tap order -- the definition the kernel
    implements (the verbatim FFT form is ``_uw_metric_fft``)."""
    nuw = len(uw)
    span = len(syms) - nuw + 1
    sq = np.abs(syms) ** 2
    corr = syms[:span] * np.conj(uw[0])
    energy = sq[:span].copy()
    for i in range(1, nuw):
        corr += syms[i : i + span] * np.conj(uw[i])
        energy += sq[i : i + span]
    return np.abs(corr) / np.maximum(np.sqrt(energy * nuw), 1e-30)


def _uw_metric_fft(syms, uw):
    nuw = len(uw)
    corr = fftconvolve(syms, np.conj(uw[::-1]), mode="valid")
    energy = np.convolve(np.abs(syms) ** 2, np.ones(nuw), mode="valid")
    return np.abs(corr) / np.maximum(np.sqrt(energy * nuw), 1e-30)


def _ref_receive(self, samples, num_bits=None, uw_search=_uw_metric_direct):
    if num_bits is None:
        num_bits = self.bits_per_burst
    if num_bits > self.bits_per_burst:
        raise ValueError("num_bits exceeds burst capacity")
    mf = fftconvolve(np.asarray(samples, dtype=np.complex128), self.pulse[::-1])
    syms, tdiag = _ref_recover_timing(self, mf)
    if self.cfo_recovery and len(syms) >= 8:
        cfo = frequency_estimate(syms, order=self.psk.order)
        syms = syms * np.exp(-2j * np.pi * cfo * np.arange(len(syms)))
        tdiag["cfo"] = cfo
    uw = self.uw
    nuw = len(uw)
    if len(syms) < self.burst.total:
        raise BurstSyncError("burst truncated: not enough recovered symbols")
    metric = uw_search(syms, uw)
    pos = int(np.argmax(metric))
    uw_metric = float(metric[pos])
    start = pos + nuw
    payload = syms[start : start + self.burst.payload]
    if len(payload) < self.burst.payload:
        raise BurstSyncError("burst truncated after UW")
    phase = data_aided_phase(syms[pos : pos + nuw], uw)
    payload = payload * np.exp(-1j * phase)
    bits = self.psk.demodulate_hard(payload)[:num_bits]
    out = {
        "bits": bits,
        "symbols": payload,
        "uw_metric": uw_metric,
        "uw_position": pos,
        "phase": phase,
        "timing_lock": _ref_timing_lock_metric(mf, self.sps),
        "carrier_lock": carrier_lock_metric(payload, self.psk.order),
        "snr_db": estimate_snr_m2m4(payload),
    }
    out.update(tdiag)
    return out


def _ref_transmit(self, bits):
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    padded = np.zeros(self.bits_per_burst, dtype=np.uint8)
    padded[: len(bits)] = bits
    payload = self.psk.modulate(padded)
    symbols = np.concatenate([self.preamble, self.uw, payload])
    x = upsample(symbols, self.sps)
    return fftconvolve(x, self.pulse, mode="full")


def _ref_multiplex(baseband, num_channels):
    bb = np.asarray(baseband, dtype=np.complex128)
    m, n = bb.shape
    total = n * m
    out = np.zeros(total, dtype=np.complex128)
    proto = design_lowpass(8 * m + 1, 0.5 / m * 0.8)
    t = np.arange(total)
    for k in range(m):
        up = np.zeros(total, dtype=np.complex128)
        up[::m] = bb[k]
        shaped = fftconvolve(up, proto * m, mode="full")[:total]
        out += shaped * np.exp(2j * np.pi * (k / m) * t)
    return out


# -- helpers -------------------------------------------------------------------
def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(":".join(map(str, parts)).encode()))


def _stack(modem, rng, rows, sigma, delays=None, cfo=0.0):
    """Noisy bursts, row r delayed by ``delays[r]`` samples, one length."""
    bits = rng.integers(0, 2, (rows, modem.bits_per_burst)).astype(np.uint8)
    tx = modem.transmit_batch(bits)
    delays = [0] * rows if delays is None else delays
    n = tx.shape[1] + 2 * modem.sps
    out = np.zeros((rows, n), dtype=np.complex128)
    for r, d in enumerate(delays):
        keep = min(tx.shape[1], n - d)
        out[r, d : d + keep] = tx[r, :keep]
    if cfo:
        out = out * np.exp(2j * np.pi * cfo * np.arange(n))
    out += sigma * (rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape))
    return out, bits


def _assert_same(got, ref) -> None:
    """Two receive outcomes are the same burst result, to the float."""
    if isinstance(ref, Exception):
        assert isinstance(got, BurstSyncError) and type(got) is type(ref)
        assert str(got) == str(ref)
        return
    assert isinstance(got, dict), got
    assert list(got) == list(ref)
    for key, want in ref.items():
        if isinstance(want, np.ndarray):
            assert got[key].dtype == want.dtype, key
            np.testing.assert_array_equal(got[key], want, err_msg=key)
        else:
            assert type(got[key]) is type(want) and got[key] == want, key


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BurstSyncError as exc:
        return exc


def _check_stack(modem, stack, num_bits=None):
    """C-row call == C one-row calls == the replaced implementation."""
    batched = modem.receive_batch(stack, num_bits)
    assert len(batched) == len(stack)
    for r, row in enumerate(stack):
        _assert_same(batched[r], _outcome(modem.receive, row, num_bits))
        _assert_same(batched[r], _outcome(_ref_receive, modem, row, num_bits))
    return batched


def _strobe_counts(modem, stack, batched):
    stop = stack.shape[1] + len(modem.pulse) - 1 - 2.0
    return {
        int(np.ceil((stop - res["tau"]) / modem.sps))
        for res in batched
        if isinstance(res, dict)
    }


# -- receive --------------------------------------------------------------------
class TestReceiveBatchEquivalence:
    @pytest.mark.parametrize("modulation", [2, 4, 8])
    @pytest.mark.parametrize("sps", [3, 4, 8])
    @pytest.mark.parametrize("timing", ["oerder-meyr", "gardner"])
    def test_stack_matches_rows_and_reference(self, modulation, sps, timing):
        modem = TdmaModem(TIMING_BURSTS[timing], sps=sps, modulation=modulation)
        rng = _rng("stack", modulation, sps, timing)
        stack, bits = _stack(modem, rng, rows=4, sigma=0.05, delays=[0, 1, 2, 3])
        batched = _check_stack(modem, stack)
        if timing == "oerder-meyr":  # the Gardner loop may still be pulling in
            for r in range(4):
                np.testing.assert_array_equal(batched[r]["bits"], bits[r])

    def test_ragged_strobe_counts(self):
        """Rows of one stack interpolate different strobe counts; each
        keeps exactly its own valid range."""
        modem = TdmaModem(BURST)
        rng = _rng("ragged")
        stack, _ = _stack(modem, rng, rows=6, sigma=0.05, delays=[0, 1, 2, 3, 1, 2])
        batched = _check_stack(modem, stack)
        assert len(_strobe_counts(modem, stack, batched)) == 2

    def test_truncated_row_fails_alone(self):
        modem = TdmaModem(BURST)
        rng = _rng("truncated")
        late = (BURST.payload - 4) * modem.sps
        stack, bits = _stack(modem, rng, rows=4, sigma=0.05, delays=[0, late, 1, 2])
        batched = _check_stack(modem, stack)
        assert isinstance(batched[1], BurstSyncError)
        with pytest.raises(BurstSyncError):
            modem.receive(stack[1])
        for r in (0, 2, 3):
            np.testing.assert_array_equal(batched[r]["bits"], bits[r])

    def test_short_stack_fails_every_row(self):
        modem = TdmaModem(LONG_BURST)
        rng = _rng("short")
        stack, _ = _stack(modem, rng, rows=3, sigma=0.05)
        batched = _check_stack(modem, stack[:, : stack.shape[1] // 2])
        assert all(isinstance(res, BurstSyncError) for res in batched)

    def test_cfo_recovery(self):
        modem = TdmaModem(BURST, cfo_recovery=True)
        rng = _rng("cfo")
        stack, bits = _stack(modem, rng, rows=3, sigma=0.05, delays=[0, 2, 3], cfo=0.002)
        batched = _check_stack(modem, stack)
        for r in range(3):
            assert "cfo" in batched[r]

    def test_noise_only_rows(self):
        """Blank carriers: whatever sync decides, it decides identically."""
        modem = TdmaModem(BURST)
        rng = _rng("noise")
        n = modem.num_tx_samples()
        stack = 0.3 * (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        _check_stack(modem, stack)

    def test_num_bits_below_capacity(self):
        modem = TdmaModem(BURST)
        rng = _rng("num-bits")
        stack, bits = _stack(modem, rng, rows=3, sigma=0.05, delays=[0, 1, 2])
        batched = _check_stack(modem, stack, num_bits=17)
        for r in range(3):
            np.testing.assert_array_equal(batched[r]["bits"], bits[r, :17])

    def test_batch_shape_invariance(self):
        """The same burst in a 1-row and an 8-row stack: identical floats."""
        modem = TdmaModem(BURST)
        rng = _rng("shape")
        stack, _ = _stack(modem, rng, rows=8, sigma=0.1, delays=[0, 1, 2, 3] * 2)
        wide = modem.receive_batch(stack)
        for r in range(8):
            _assert_same(wide[r], modem.receive_batch(stack[r : r + 1])[0])

    @given(
        modulation=st.sampled_from([2, 4, 8]),
        sps=st.sampled_from([3, 4, 8]),
        timing=st.sampled_from(["oerder-meyr", "gardner"]),
        cfo_recovery=st.booleans(),
        rows=st.integers(1, 4),
        num_bits=st.integers(0, BURST.payload),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_sweep(
        self, modulation, sps, timing, cfo_recovery, rows, num_bits, seed
    ):
        modem = TdmaModem(
            TIMING_BURSTS[timing], sps=sps, modulation=modulation,
            cfo_recovery=cfo_recovery,
        )
        rng = _rng("hyp", seed)
        delays = [int(d) for d in rng.integers(0, 2 * sps, rows)]
        stack, _ = _stack(modem, rng, rows=rows, sigma=0.15, delays=delays)
        _check_stack(modem, stack, num_bits)

    def test_one_sync_pass_per_stack(self, monkeypatch):
        """Rows with different strobe counts share one UW search, and
        each row still matches its one-row call to the float."""
        modem = TdmaModem(BURST)
        rng = _rng("one-pass")
        stack, _ = _stack(modem, rng, rows=6, sigma=0.05, delays=[0, 1, 2, 3, 1, 2])
        calls = []
        sync = TdmaModem._sync_rows

        def spy(self, syms, *args):
            calls.append(syms.shape)
            return sync(self, syms, *args)

        monkeypatch.setattr(TdmaModem, "_sync_rows", spy)
        batched = modem.receive_batch(stack)
        assert calls == [(6, max(_strobe_counts(modem, stack, batched)))]
        assert len(_strobe_counts(modem, stack, batched)) == 2
        for r, row in enumerate(stack):
            _assert_same(batched[r], _outcome(modem.receive, row))

    @pytest.mark.parametrize("kind", ["clean", "noisy", "noise-only", "ragged"])
    def test_uw_search_matches_fft_form(self, kind):
        """The direct-form UW search makes the FFT form's decisions; its
        ``uw_metric`` differs at most in the last bits."""
        burst = BurstFormat(preamble=16, uw=16, payload=96)
        modem = TdmaModem(burst)
        rng = _rng("fft-form", kind)
        if kind == "noise-only":
            n = modem.num_tx_samples()
            stack = 0.3 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
        else:
            sigma = {"clean": 0.0, "noisy": 0.3, "ragged": 0.05}[kind]
            stack, _ = _stack(modem, rng, rows=6, sigma=sigma, delays=[0, 1, 2, 3, 5, 7])
            if kind == "ragged":  # the traffic world's 143/144-strobe rows
                stack = stack[:, : modem.num_tx_samples()]
        batched = modem.receive_batch(stack)
        if kind == "ragged":
            assert _strobe_counts(modem, stack, batched) == {143, 144}
        for r, row in enumerate(stack):
            ref = _outcome(_ref_receive, modem, row, None, _uw_metric_fft)
            got = batched[r]
            if isinstance(ref, Exception):
                assert type(got) is type(ref) and str(got) == str(ref)
                continue
            assert got["uw_position"] == ref["uw_position"]
            np.testing.assert_array_equal(got["bits"], ref["bits"])
            assert got["uw_metric"] == pytest.approx(ref["uw_metric"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("poison", ["nan-row", "one-inf"])
    def test_non_finite_row_fails_alone(self, poison):
        """A NaN or inf row fails with its own error, warns nothing, and
        leaves the other rows as their one-row calls."""
        modem = TdmaModem(BURST)
        rng = _rng("non-finite")
        stack, bits = _stack(modem, rng, rows=3, sigma=0.05, delays=[0, 1, 2])
        if poison == "nan-row":
            stack[1] = np.nan
        else:
            stack[1, 40] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = modem.receive_batch(stack)
            with pytest.raises(BurstSyncError, match="non-finite"):
                modem.receive(stack[1])
        assert isinstance(batched[1], BurstSyncError)
        for r in (0, 2):
            _assert_same(batched[r], _outcome(modem.receive, stack[r]))
            np.testing.assert_array_equal(batched[r]["bits"], bits[r])

    @pytest.mark.parametrize("timing", ["oerder-meyr", "gardner"])
    def test_empty_stack(self, timing):
        modem = TdmaModem(TIMING_BURSTS[timing])
        assert modem.receive_batch(np.zeros((0, modem.num_tx_samples()), complex)) == []

    def test_rejects_non_stacks(self):
        modem = TdmaModem(BURST)
        with pytest.raises(ValueError):
            modem.receive_batch(np.zeros(modem.num_tx_samples(), dtype=complex))


# -- transmit and multiplex ----------------------------------------------------
class TestSynthesisEquivalence:
    @pytest.mark.parametrize("modulation", [2, 4, 8])
    @pytest.mark.parametrize("sps", [3, 4, 8])
    def test_transmit_batch_matches_loop(self, modulation, sps):
        modem = TdmaModem(BURST, sps=sps, modulation=modulation)
        rng = _rng("tx", modulation, sps)
        bits = rng.integers(0, 2, (5, modem.bits_per_burst)).astype(np.uint8)
        stack = modem.transmit_batch(bits)
        np.testing.assert_array_equal(
            stack, np.stack([_ref_transmit(modem, b) for b in bits])
        )
        for r in range(5):
            np.testing.assert_array_equal(modem.transmit(bits[r]), stack[r])

    def test_transmit_batch_pads_short_payloads(self):
        modem = TdmaModem(BURST)
        bits = _rng("pad").integers(0, 2, (2, 10)).astype(np.uint8)
        np.testing.assert_array_equal(
            modem.transmit_batch(bits),
            np.stack([_ref_transmit(modem, b) for b in bits]),
        )
        with pytest.raises(ValueError):
            modem.transmit_batch(np.zeros((2, modem.bits_per_burst + 1)))

    def test_transmit_batch_empty_stack(self):
        modem = TdmaModem(BURST)
        for nbits in (0, 10, modem.bits_per_burst):
            out = modem.transmit_batch(np.zeros((0, nbits), dtype=np.uint8))
            assert out.shape == (0, modem.num_tx_samples())
            assert out.dtype == np.complex128

    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    def test_multiplex_matches_loop(self, m):
        # the synthesis bank reassociates the loop's sums (one inverse
        # DFT across channels instead of m mixed convolutions), so it is
        # held to a relative tolerance, not float identity
        for n in (1, 150, 544):
            rng = _rng("mux", m, n)
            bb = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            out = multiplex_carriers(bb, m)
            ref = _ref_multiplex(bb, m)
            assert out.dtype == np.complex128 and out.shape == (m * n,)
            assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref)), n

    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    def test_multiplex_silent_and_empty_stacks(self, m):
        out = multiplex_carriers(np.zeros((m, 150)), m)
        np.testing.assert_array_equal(out, np.zeros(m * 150, dtype=np.complex128))
        empty = multiplex_carriers(np.zeros((m, 0), dtype=np.complex128), m)
        assert empty.shape == (0,) and empty.dtype == np.complex128

    def test_multiplex_rejects_bad_stacks(self):
        with pytest.raises(ValueError):
            multiplex_carriers(np.zeros((3, 150)), 4)
        with pytest.raises(ValueError):
            multiplex_carriers(np.zeros(150), 1)
        with pytest.raises(ValueError):
            multiplex_carriers(np.zeros((2, 3, 150)), 2)
