"""Property tests: the batched CDMA return-link engine == the scalar path.

The engine (docs/performance.md) follows the batch-as-the-primitive
discipline: ``CdmaModem.receive`` delegates to ``receive_batch`` and
``acquire`` to ``acquire_bank``, so there is exactly one kernel.  What
*can* still break the contract is batch-shape dependence inside the
kernels (a BLAS reduction that reassociates differently for ``(64, sf)``
than for ``(1, sf)``, a broadcast path taken only for ``B > 1``).  These
tests therefore compare multi-row calls against one-row calls -- which
must be **float-identical**, not merely close -- across spreading
factors, oversampling ratios, rake finger counts and the degenerate
corners (undetected acquisition on pure noise, a single-symbol payload,
all-zero bits).

The chip-sum kernels are also pinned against the per-chip despread and
the three-correlator DLL they replaced (``_ref_interp_despread``,
``_ref_dll_track``).  Those comparisons use tolerances fixed up front
(1e-12 relative on symbols, 1e-9 samples on the timing path), because
the chip sums re-associate the per-chip arithmetic.
"""

import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.cdma import (
    CdmaConfig,
    CdmaModem,
    CdmaReturnBank,
    Dll,
    RakeReceiver,
    _block_dll_track,
    _interp_despread,
    acquire,
    acquire_bank,
    spread,
)
from repro.dsp.filters import srrc, upsample
from repro.dsp.tdma import BurstSyncError

pytestmark = pytest.mark.perf

DIAG_SCALARS = ("phase", "acq_metric", "carrier_lock", "snr_db")


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(":".join(map(str, parts)).encode()))


def _noisy_stack(modem, rng, nb, num_bits, sigma):
    bursts, sent = [], []
    for _ in range(nb):
        bits = rng.integers(0, 2, num_bits).astype(np.uint8)
        tx = modem.transmit(bits)
        noise = sigma * (
            rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx))
        )
        bursts.append(tx + noise)
        sent.append(bits)
    return np.stack(bursts), sent


def _assert_result_identical(got: dict, ref: dict) -> None:
    """Batched and scalar receive results must be float-identical."""
    np.testing.assert_array_equal(got["bits"], ref["bits"])
    np.testing.assert_array_equal(got["symbols"], ref["symbols"])
    np.testing.assert_array_equal(got["dll_tau"], ref["dll_tau"])
    for key in DIAG_SCALARS:
        assert got[key] == ref[key], key
    ga, ra = got["acquisition"], ref["acquisition"]
    assert (ga.phase, ga.metric, ga.mean_level, ga.detected) == (
        ra.phase,
        ra.metric,
        ra.mean_level,
        ra.detected,
    )
    np.testing.assert_array_equal(ga.statistics, ra.statistics)


def _ref_interp_despread(x, codes, starts, sps):
    """The per-chip despread kernel before the chip-sum rewrite, verbatim
    apart from the span check: every chip is interpolated at its own
    ``floor`` and fraction, then reduced against the code."""
    starts = np.asarray(starts, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    sf = codes.shape[-1]
    idx = starts[..., None] + np.arange(sf) * sps  # (..., sf)
    base = np.floor(idx).astype(np.int64)
    frac = idx - base
    if x.ndim == 1:
        samples = x[base] * (1.0 - frac) + x[base + 1] * frac
    else:
        rows = np.arange(x.shape[0]).reshape((-1,) + (1,) * (base.ndim - 1))
        samples = x[rows, base] * (1.0 - frac) + x[rows, base + 1] * frac
    if codes.ndim > 1:
        codes = codes.reshape(
            codes.shape[:1] + (1,) * (starts.ndim - 1) + (sf,)
        )
    return (samples * codes).sum(axis=-1) / sf


def _ref_dll_track(x, codes, starts, base_refs, num_symbols, sps, sf, gain, delta):
    """The three-correlator (early/prompt/late) block DLL before the
    chip-sum rewrite, verbatim.  Returns ``(prompt (B, num_symbols),
    tau_path (num_symbols, B))``."""
    nb = len(starts)
    half = delta * sps / 2.0
    span = sf * sps
    pos = np.asarray(starts, dtype=np.float64).copy()
    base = np.asarray(base_refs, dtype=np.float64)
    offsets = np.array([0.0, -half, half])
    out = np.empty((nb, num_symbols), dtype=np.complex128)
    tau_path = np.empty((num_symbols, nb))
    for k in range(num_symbols):
        epl = _ref_interp_despread(x, codes, pos[:, None] + offsets, sps)  # (B, 3)
        p_e = np.abs(epl[:, 1]) ** 2
        p_l = np.abs(epl[:, 2]) ** 2
        norm = p_e + p_l
        live = norm > 1e-30
        # late stronger => strobe is early => advance the position
        err = np.where(live, (p_l - p_e) / np.where(live, norm, 1.0), 0.0)
        pos += gain * err * sps + span
        out[:, k] = epl[:, 0]
        tau_path[k] = pos - base - (k + 1) * span
    return out, tau_path


class TestReceiveBatchEquivalence:
    @pytest.mark.parametrize("sf", [8, 16, 64])
    @pytest.mark.parametrize("chip_sps", [2, 4])
    def test_stack_matches_per_row(self, sf, chip_sps):
        modem = CdmaModem(CdmaConfig(sf=sf, chip_sps=chip_sps))
        rng = _rng("stack", sf, chip_sps)
        stack, sent = _noisy_stack(modem, rng, nb=5, num_bits=64, sigma=0.1)
        batched = modem.receive_batch(stack, 64)
        for i in range(len(stack)):
            _assert_result_identical(batched[i], modem.receive(stack[i], 64))
        # the scenario really decodes at these operating points
        for i, bits in enumerate(sent):
            np.testing.assert_array_equal(batched[i]["bits"], bits)

    @given(
        sf=st.sampled_from([8, 16, 64]),
        chip_sps=st.sampled_from([2, 4]),
        nb=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_hypothesis_sweep(self, sf, chip_sps, nb, seed):
        modem = CdmaModem(CdmaConfig(sf=sf, chip_sps=chip_sps))
        rng = _rng("hyp", sf, chip_sps, nb, seed)
        stack, _ = _noisy_stack(modem, rng, nb=nb, num_bits=32, sigma=0.2)
        batched = modem.receive_batch(stack, 32)
        for i in range(nb):
            _assert_result_identical(batched[i], modem.receive(stack[i], 32))

    def test_undetected_acquisition_at_low_snr(self):
        """Pure noise: acquisition must report undetected, identically."""
        modem = CdmaModem(CdmaConfig(sf=16))
        rng = _rng("noise-only")
        n = modem.num_tx_samples(64)
        stack = 0.3 * (
            rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        )
        batched = modem.receive_batch(stack, 64)
        for i in range(3):
            scalar = modem.receive(stack[i], 64)
            assert not scalar["acquisition"].detected
            _assert_result_identical(batched[i], scalar)

    def test_single_symbol_payload(self):
        """num_bits == bits_per_symbol: one data symbol, snr_db is None."""
        modem = CdmaModem(CdmaConfig(sf=8))
        rng = _rng("single-sym")
        stack, sent = _noisy_stack(modem, rng, nb=3, num_bits=2, sigma=0.05)
        batched = modem.receive_batch(stack, 2)
        for i in range(3):
            scalar = modem.receive(stack[i], 2)
            assert scalar["snr_db"] is None
            _assert_result_identical(batched[i], scalar)
            np.testing.assert_array_equal(batched[i]["bits"], sent[i])

    def test_all_zero_bits(self):
        """A constant payload leaves no symbol transitions to lean on."""
        modem = CdmaModem(CdmaConfig(sf=16))
        rng = _rng("zeros")
        zeros = np.zeros(64, dtype=np.uint8)
        tx = modem.transmit(zeros)
        stack = np.stack(
            [
                tx
                + 0.05
                * (
                    rng.standard_normal(len(tx))
                    + 1j * rng.standard_normal(len(tx))
                )
                for _ in range(3)
            ]
        )
        batched = modem.receive_batch(stack, 64)
        for i in range(3):
            _assert_result_identical(batched[i], modem.receive(stack[i], 64))
            np.testing.assert_array_equal(batched[i]["bits"], zeros)

    def test_batch_shape_invariance(self):
        """The same burst in a B=1 and a B=7 stack: identical floats."""
        modem = CdmaModem(CdmaConfig(sf=16))
        rng = _rng("shape-invariance")
        stack, _ = _noisy_stack(modem, rng, nb=7, num_bits=64, sigma=0.1)
        wide = modem.receive_batch(stack, 64)
        for i in range(7):
            narrow = modem.receive_batch(stack[i : i + 1], 64)[0]
            _assert_result_identical(wide[i], narrow)


    @pytest.mark.parametrize("poison", ["nan-row", "inf-sample"])
    def test_non_finite_row_fails_alone(self, poison):
        """A NaN or inf row fails with its own error, warns nothing, and
        leaves the other rows as their one-row calls."""
        modem = CdmaModem(CdmaConfig(sf=16))
        rng = _rng("non-finite", poison)
        stack, sent = _noisy_stack(modem, rng, nb=3, num_bits=64, sigma=0.1)
        if poison == "nan-row":
            stack[1] = np.nan
        else:
            stack[1, 40] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = modem.receive_batch(stack, 64)
            with pytest.raises(BurstSyncError, match="non-finite"):
                modem.receive(stack[1], 64)
        assert isinstance(batched[1], BurstSyncError)
        for r in (0, 2):
            _assert_result_identical(batched[r], modem.receive(stack[r], 64))
            np.testing.assert_array_equal(batched[r]["bits"], sent[r])


class TestDllTrackReference:
    """The early/late-only chip-sum DLL against the three-correlator
    kernel it replaced: the same loop, summed in another order."""

    SF = 32

    def _mf(self, seed, nsym, sigma, rows=1):
        """Matched-filtered QPSK bursts, zero-padded past the tail."""
        cfg = CdmaConfig(sf=self.SF)
        code = cfg.spreading_code()
        sps = cfg.chip_sps
        pulse = srrc(cfg.beta, sps, cfg.span)
        rng = _rng("dll-ref", seed, sigma)
        out = []
        for _ in range(rows):
            sym = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, nsym)))
            x = np.convolve(upsample(spread(sym, code), sps), pulse)
            x = x + sigma * (
                rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
            )
            mf = np.convolve(x, pulse[::-1])
            out.append(np.concatenate([mf, np.zeros(self.SF * sps)]))
        return code, sps, len(pulse) - 1, np.stack(out)

    @pytest.mark.parametrize(
        "case, sigma, early",
        [("clean", 0.0, 0.0), ("noisy", 0.3, 0.0), ("half-chip-early", 0.05, 0.5)],
    )
    def test_scalar_dll_matches_reference(self, case, sigma, early):
        nsym = 120
        code, sps, gd, mf = self._mf(case, nsym, sigma)
        start = gd - early * sps
        ref, ref_tau = _ref_dll_track(
            mf[0], code, np.array([start]), np.array([start]), nsym, sps,
            self.SF, 0.15, 1.0,
        )
        dll = Dll(code, sps=sps, gain=0.15)
        got = dll.process(mf[0], start, nsym)
        np.testing.assert_allclose(
            np.array(dll.tau_history), ref_tau[:, 0], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(got, ref[0], rtol=1e-12, atol=0)
        if early:
            # the loop really pulled in the half-chip offset
            assert abs(dll.tau - early * sps) < 0.35 * sps

    def test_stack_and_shared_row_match_reference(self):
        """A ``(B, n)`` stack with one code, and one shared row with
        per-user codes (the return bank's layout)."""
        nsym = 40
        code, sps, gd, mf = self._mf("stack", nsym, 0.1, rows=3)
        starts = gd + np.array([0.0, -1.5, 1.25])
        ref, ref_tau = _ref_dll_track(
            mf, code, starts, starts, nsym, sps, self.SF, 0.1, 1.0
        )
        strobes, tau = _block_dll_track(
            mf, code, starts, starts, nsym, sps, self.SF, 0.1, 1.0
        )
        np.testing.assert_allclose(tau, ref_tau, rtol=0, atol=1e-9)
        prompt = _interp_despread(mf, code, strobes, sps)
        np.testing.assert_allclose(prompt, ref, rtol=1e-12, atol=0)

        codes = np.stack(
            [CdmaConfig(sf=self.SF, scrambling_shift=u).spreading_code() for u in range(3)]
        )
        shared = mf.sum(axis=0)
        ref, ref_tau = _ref_dll_track(
            shared, codes, starts, starts, nsym, sps, self.SF, 0.1, 1.0
        )
        strobes, tau = _block_dll_track(
            shared, codes, starts, starts, nsym, sps, self.SF, 0.1, 1.0
        )
        np.testing.assert_allclose(tau, ref_tau, rtol=0, atol=1e-9)
        prompt = _interp_despread(shared, codes, strobes, sps)
        np.testing.assert_allclose(prompt, ref, rtol=1e-12, atol=0)

    def test_two_correlators_per_symbol(self):
        """Each loop step gathers the early and late chip sums only:
        one ``(B, 2, 2, sf)`` read of (correlator, tap, chip) per symbol."""

        class Spy(np.ndarray):
            gathers: list = []

            def take(self, indices, *args, **kwargs):
                Spy.gathers.append(np.shape(indices))
                return np.asarray(self).take(indices, *args, **kwargs)

        nsym = 10
        code, sps, gd, mf = self._mf("spy", nsym, 0.1, rows=2)
        starts = np.full(2, float(gd))
        _block_dll_track(
            mf.view(Spy), code, starts, starts, nsym, sps, self.SF, 0.1, 1.0
        )
        assert Spy.gathers == [(2, 2, 2, self.SF)] * nsym


class TestAcquireBankEquivalence:
    @pytest.mark.parametrize("sf", [8, 16, 64])
    def test_bank_matches_per_code(self, sf):
        rng = _rng("acq", sf)
        codes = np.stack(
            [
                CdmaConfig(sf=sf, scrambling_shift=u).spreading_code()
                for u in range(4)
            ]
        )
        chips = np.tile(codes[1].astype(np.complex128), 4)
        chips = chips + 0.2 * (
            rng.standard_normal(len(chips)) + 1j * rng.standard_normal(len(chips))
        )
        banked = acquire_bank(chips, codes, coherent_symbols=4)
        for u in range(4):
            single = acquire(chips, codes[u], coherent_symbols=4)
            assert banked[u].phase == single.phase
            assert banked[u].metric == single.metric
            assert banked[u].mean_level == single.mean_level
            assert banked[u].detected == single.detected
            np.testing.assert_array_equal(
                banked[u].statistics, single.statistics
            )

    def test_rotated_code_found_at_right_phase(self):
        code = CdmaConfig(sf=32).spreading_code()
        rx = np.tile(np.roll(code, 7).astype(np.complex128), 6)
        res = acquire_bank(rx, code[None, :], coherent_symbols=6)[0]
        assert res.detected and res.phase == 7


class TestRakeGemmEquivalence:
    @pytest.mark.parametrize("num_fingers", [1, 2, 3, 4])
    def test_gemm_matches_naive_interpolation(self, num_fingers):
        """despread_fingers == an independent per-symbol reimplementation."""
        sf, sps, nsym = 16, 4, 12
        code = CdmaConfig(sf=sf).spreading_code()
        rng = _rng("rake", num_fingers)
        n = (nsym + sf) * sf * sps
        mf = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rake = RakeReceiver(code, sps=sps, max_fingers=num_fingers)
        rake.finger_phases = list(range(num_fingers))
        base = 11.0
        got = rake.despread_fingers(mf, base, nsym)
        assert got.shape == (num_fingers, nsym)
        for f, phase in enumerate(rake.finger_phases):
            for k in range(nsym):
                start = base + phase * sps + k * sf * sps
                idx = start + np.arange(sf) * sps
                lo = np.floor(idx).astype(np.int64)
                frac = idx - lo
                samples = mf[lo] * (1.0 - frac) + mf[lo + 1] * frac
                ref = np.sum(samples * code) / sf
                assert got[f, k] == complex(ref)

    @pytest.mark.parametrize("base", [11.37, 11.999999999])
    @pytest.mark.parametrize("num_fingers", [1, 3])
    def test_fractional_base_matches_per_chip_reference(self, base, num_fingers):
        """A fractional base weights the interpolator's ``base + 1`` tap:
        the chip-sum despread of ``despread_fingers`` and
        ``Dll._despread_at`` equals the per-chip interpolation (summed
        in another order, so within 1e-12 relative)."""
        sf, sps, nsym = 16, 4, 12
        code = CdmaConfig(sf=sf).spreading_code()
        rng = _rng("rake-frac", base, num_fingers)
        n = (nsym + sf) * sf * sps
        mf = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rake = RakeReceiver(code, sps=sps, max_fingers=num_fingers)
        rake.finger_phases = list(range(num_fingers))
        dll = Dll(code, sps=sps, gain=0.0)
        got = rake.despread_fingers(mf, base, nsym)
        for f, phase in enumerate(rake.finger_phases):
            for k in range(nsym):
                start = base + phase * sps + k * sf * sps
                ref = _ref_interp_despread(mf, code, np.array(start), sps)
                np.testing.assert_allclose(got[f, k], ref, rtol=1e-12, atol=0)
                np.testing.assert_allclose(
                    dll._despread_at(mf, start), ref, rtol=1e-12, atol=0
                )
                # the second tap really carries weight here
                floor_only = _ref_interp_despread(
                    mf, code, np.array(np.floor(start)), sps
                )
                assert abs(ref - floor_only) > 1e-9 * abs(ref)

    def test_scalar_dll_settled_matches_kernel(self):
        """Dll(gain=0).process goes through the same settled kernel."""
        sf, sps, nsym = 8, 4, 6
        code = CdmaConfig(sf=sf).spreading_code()
        rng = _rng("dll-settled")
        n = (nsym + 2) * sf * sps
        mf = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dll = Dll(code, sps=sps, gain=0.0)
        out = dll.process(mf, 3.0, nsym)
        rake = RakeReceiver(code, sps=sps)
        rake.finger_phases = [0]
        np.testing.assert_array_equal(out, rake.despread_fingers(mf, 3.0, nsym)[0])


class TestReturnBankEquivalence:
    @pytest.mark.parametrize("users", [1, 2, 4])
    def test_bank_matches_per_user_scalar(self, users):
        bank = CdmaReturnBank.for_users(users, CdmaConfig(sf=32))
        rng = _rng("bank", users)
        sent = [rng.integers(0, 2, 64).astype(np.uint8) for _ in range(users)]
        comp = bank.transmit(sent)
        comp = comp + 0.05 * (
            rng.standard_normal(len(comp)) + 1j * rng.standard_normal(len(comp))
        )
        banked = bank.receive(comp, 64)
        for u in range(users):
            _assert_result_identical(banked[u], bank.modems[u].receive(comp, 64))
            np.testing.assert_array_equal(banked[u]["bits"], sent[u])

    def test_mismatched_front_ends_rejected(self):
        with pytest.raises(ValueError):
            CdmaReturnBank([CdmaConfig(sf=16), CdmaConfig(sf=32)])
        with pytest.raises(ValueError):
            CdmaReturnBank([])
        with pytest.raises(ValueError):
            CdmaReturnBank.for_users(0)

    def test_bank_rejects_burst_stacks(self):
        bank = CdmaReturnBank.for_users(2, CdmaConfig(sf=16))
        with pytest.raises(ValueError):
            bank.receive(np.zeros((2, 4096), dtype=complex), 16)


class TestReturnBankCache:
    """``for_users`` hands out one cached, read-only bank per config."""

    def test_equal_configs_share_one_bank(self):
        a = CdmaReturnBank.for_users(3, CdmaConfig(sf=32))
        assert CdmaReturnBank.for_users(3, CdmaConfig(sf=32)) is a

    @pytest.mark.parametrize(
        "users, cfg",
        [
            (2, CdmaConfig(sf=32)),
            (3, CdmaConfig(sf=64)),
            (3, CdmaConfig(sf=32, scrambling_shift=5)),
        ],
        ids=["users", "sf", "scrambling_shift"],
    )
    def test_different_configs_get_different_banks(self, users, cfg):
        ref = CdmaReturnBank.for_users(3, CdmaConfig(sf=32))
        bank = CdmaReturnBank.for_users(users, cfg)
        assert bank is not ref
        assert bank.codes.shape == (users, cfg.sf)
        assert bank.config.scrambling_shift == cfg.scrambling_shift

    def test_shared_arrays_are_read_only(self):
        bank = CdmaReturnBank.for_users(2, CdmaConfig(sf=16))
        with pytest.raises(ValueError, match="read-only"):
            bank.codes[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bank.pilot[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bank.modems[1].pilot[0] = 0.0


class TestReturnBankLoad:
    """Multiple-access interference bounds the users one SF carries.

    The scrambled codes are short and not orthogonal, so at SF 16 a
    third user already takes bit errors with no noise at all (see
    ``CdmaReturnBank.for_users``).  The loads the repo runs -- SF 16
    with 2 users (tests, payload front door) and SF 64 with 8 users
    (the e2e return-link workload) -- must decode clean.
    """

    @pytest.mark.parametrize("users, sf", [(2, 16), (8, 64)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relied_on_loads_decode_noiseless(self, users, sf, seed):
        bank = CdmaReturnBank.for_users(users, CdmaConfig(sf=sf))
        rng = _rng("load", users, sf, seed)
        sent = [rng.integers(0, 2, 128).astype(np.uint8) for _ in range(users)]
        for got, bits in zip(bank.receive(bank.transmit(sent), 128), sent):
            np.testing.assert_array_equal(got["bits"], bits)


class TestTransmitBatchEquivalence:
    @pytest.mark.parametrize("sf", [16, 64])
    def test_rows_match_looped_transmit(self, sf):
        """Each stacked row equals transmit on its bits, and equals the
        spread -> upsample -> SRRC chain built from the public kernels."""
        from scipy.signal import fftconvolve

        from repro.dsp.cdma import spread
        from repro.dsp.filters import upsample

        modem = CdmaModem(CdmaConfig(sf=sf))
        rng = _rng("tx-batch", sf)
        bits = rng.integers(0, 2, (4, modem.bits_per_burst)).astype(np.uint8)
        stack = modem.transmit_batch(bits)
        assert stack.shape == (4, modem.num_tx_samples(modem.bits_per_burst))
        for row, b in zip(stack, bits):
            np.testing.assert_array_equal(row, modem.transmit(b))
            symbols = np.concatenate([modem.pilot, modem.psk.modulate(b)])
            chips = upsample(spread(symbols, modem.code), modem.config.chip_sps)
            np.testing.assert_array_equal(row, fftconvolve(chips, modem.pulse))

    def test_empty_stacks(self):
        modem = CdmaModem()
        out = modem.transmit_batch(np.zeros((0, modem.bits_per_burst), dtype=np.uint8))
        assert out.shape == (0, modem.num_tx_samples(modem.bits_per_burst))
        assert out.dtype == np.complex128
        n = modem.num_tx_samples(modem.bits_per_burst)
        assert modem.receive_batch(np.zeros((0, n), dtype=complex)) == []
        with pytest.raises(ValueError, match="multiple"):
            modem.receive_batch(np.zeros((0, n), dtype=complex), num_bits=3)

    def test_rejects_bad_stacks(self):
        modem = CdmaModem()
        with pytest.raises(ValueError, match="bit stack"):
            modem.transmit_batch(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError, match="multiple"):
            modem.transmit_batch(np.zeros((2, 3), dtype=np.uint8))


class TestNumBitsContract:
    """CDMA receive returns exactly ``num_bits`` or rejects the count."""

    def _burst(self, sf=16):
        modem = CdmaModem(CdmaConfig(sf=sf))
        bits = _rng("contract", sf).integers(0, 2, 128).astype(np.uint8)
        return modem, modem.transmit(bits), bits

    def test_omitted_num_bits_is_bits_per_burst(self):
        modem, tx, bits = self._burst()
        assert CdmaModem.bits_per_burst == 128
        stack = np.stack([tx, tx])
        default = modem.receive_batch(stack)
        explicit = modem.receive_batch(stack, modem.bits_per_burst)
        for got, ref in zip(default, explicit):
            assert len(got["bits"]) == modem.bits_per_burst
            _assert_result_identical(got, ref)
        np.testing.assert_array_equal(modem.receive(tx)["bits"], bits)

    @pytest.mark.parametrize("num_bits", [3, 127])
    def test_partial_symbol_rejected(self, num_bits):
        modem, tx, _ = self._burst()
        with pytest.raises(ValueError, match="not a multiple of 2 bits"):
            modem.receive(tx, num_bits)
        with pytest.raises(ValueError, match="not a multiple of 2 bits"):
            modem.receive_batch(tx[None, :], num_bits)
        with pytest.raises(ValueError, match="not a multiple of 2 bits"):
            modem.receive_rake(tx, num_bits)

    def test_negative_count_rejected_by_name(self):
        modem, tx, _ = self._burst()
        with pytest.raises(ValueError, match="num_bits must be >= 0"):
            modem.receive(tx, -4)

    @pytest.mark.parametrize("num_bits", [-4, 3, 127])
    def test_bank_and_payload_front_door(self, num_bits):
        from repro.core import PayloadConfig, RegenerativePayload

        bank = CdmaReturnBank.for_users(2, CdmaConfig(sf=16))
        comp = bank.transmit([np.zeros(128, dtype=np.uint8)] * 2)
        with pytest.raises(ValueError, match="num_bits"):
            bank.receive(comp, num_bits)
        pl = RegenerativePayload(
            PayloadConfig(
                num_carriers=1, fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32
            )
        )
        pl.boot(modem="modem.cdma")
        with pytest.raises(ValueError, match="num_bits"):
            pl.process_return_link(comp, num_users=2, num_bits=num_bits)

    def test_zero_bit_burst(self):
        """A pilot-only burst returns empty bits and symbols; the lock
        and SNR diagnostics have nothing to measure and read None."""
        modem = CdmaModem(CdmaConfig(sf=16))
        tx = modem.transmit(np.zeros(0, dtype=np.uint8))
        assert len(tx) == modem.num_tx_samples(0)
        single = modem.receive(tx, 0)
        batched = modem.receive_batch(np.stack([tx, tx]), 0)
        for out in [single, *batched]:
            assert out["bits"].shape == (0,) and out["bits"].dtype == np.uint8
            assert out["symbols"].shape == (0,)
            assert out["carrier_lock"] is None and out["snr_db"] is None
            assert out["acquisition"].detected
        _assert_result_identical(batched[1], single)

    def test_zero_bit_bank(self):
        bank = CdmaReturnBank.for_users(2, CdmaConfig(sf=16))
        comp = bank.transmit([np.zeros(0, dtype=np.uint8)] * 2)
        out = bank.receive(comp, 0)
        assert len(out) == 2
        for u, res in enumerate(out):
            assert res["bits"].shape == (0,)
            assert res["carrier_lock"] is None and res["snr_db"] is None
            _assert_result_identical(res, bank.modems[u].receive(comp, 0))

    @pytest.mark.parametrize("num_bits", [2, 126])
    def test_whole_symbol_counts_return_exactly_num_bits(self, num_bits):
        modem, tx, bits = self._burst()
        out = modem.receive(tx, num_bits)
        np.testing.assert_array_equal(out["bits"], bits[:num_bits])
