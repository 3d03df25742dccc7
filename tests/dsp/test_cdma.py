"""Tests for the CDMA modem personality: codes, acquisition, DLL, chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PayloadConfig, RegenerativePayload
from repro.core.registry import default_registry
from repro.dsp.cdma import (
    _GOLD_PAIR_TAPS,
    _PRIMITIVE_TAPS,
    CdmaConfig,
    CdmaModem,
    CdmaReturnBank,
    Dll,
    _interp_despread,
    acquire,
    despread,
    gold_code,
    m_sequence,
    mean_acquisition_time,
    ovsf_code,
    spread,
)
from repro.dsp.channel import SatelliteChannel
from repro.sim import RngRegistry


class TestSequences:
    @pytest.mark.parametrize("deg", [3, 5, 7, 9])
    def test_m_sequence_length_and_balance(self, deg):
        s = m_sequence(deg)
        assert len(s) == 2**deg - 1
        # balance property: one more -1 than +1
        assert np.sum(s == 1) == 2 ** (deg - 1) - 1

    def test_m_sequence_two_valued_autocorrelation(self):
        s = m_sequence(7).astype(float)
        n = len(s)
        for shift in (1, 5, 50):
            r = np.dot(s, np.roll(s, shift))
            assert r == -1  # classic m-sequence property

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError):
            m_sequence(2)

    def test_gold_code_cross_correlation_bounded(self):
        deg = 7
        n = 2**deg - 1
        a = gold_code(deg, 0).astype(float)
        b = gold_code(deg, 3).astype(float)
        bound = 2 ** ((deg + 1) // 2) + 1  # Gold bound for odd degree
        cc = np.array([np.dot(a, np.roll(b, k)) for k in range(n)])
        assert np.max(np.abs(cc)) <= bound

    def test_gold_unknown_degree(self):
        with pytest.raises(ValueError):
            gold_code(4)

    @pytest.mark.parametrize("sf", [4, 8, 16, 64])
    def test_ovsf_orthogonality(self, sf):
        codes = np.vstack([ovsf_code(sf, i) for i in range(sf)]).astype(float)
        gram = codes @ codes.T
        np.testing.assert_allclose(gram, sf * np.eye(sf))

    def test_ovsf_validation(self):
        with pytest.raises(ValueError):
            ovsf_code(6, 0)
        with pytest.raises(ValueError):
            ovsf_code(8, 8)


class TestSequenceVectorization:
    """The chunked-recurrence LFSR must equal a chip-at-a-time register."""

    @staticmethod
    def _scalar_lfsr(degree, taps):
        state = np.ones(degree, dtype=np.uint8)
        length = 2**degree - 1
        out = np.empty(length, dtype=np.uint8)
        for i in range(length):
            out[i] = state[-1]
            fb = 0
            for t in taps:
                fb ^= state[t - 1]
            state[1:] = state[:-1]
            state[0] = fb
        return (1 - 2 * out.astype(np.int64)).astype(np.int8)

    @pytest.mark.parametrize("deg", sorted(_PRIMITIVE_TAPS))
    def test_matches_scalar_register_primitive(self, deg):
        np.testing.assert_array_equal(
            m_sequence(deg), self._scalar_lfsr(deg, _PRIMITIVE_TAPS[deg])
        )

    @pytest.mark.parametrize("deg", sorted(_GOLD_PAIR_TAPS))
    def test_matches_scalar_register_gold_pair(self, deg):
        np.testing.assert_array_equal(
            m_sequence(deg, _GOLD_PAIR_TAPS[deg]),
            self._scalar_lfsr(deg, _GOLD_PAIR_TAPS[deg]),
        )

    def test_bad_taps_rejected(self):
        with pytest.raises(ValueError):
            m_sequence(5, (5, 7))
        with pytest.raises(ValueError):
            m_sequence(5, (0, 2))


class TestDesignCacheRegistration:
    """Code tables live in the repro.caching registry as frozen arrays."""

    TABLES = (
        "cdma.m_sequence",
        "cdma.gold_code",
        "cdma.ovsf_code",
        "cdma.spreading_code",
        "cdma.acq_code_fft",
    )

    def test_all_tables_registered(self):
        from repro.caching import design_cache_stats

        # derive one of each so every cache has been touched
        m_sequence(5)
        gold_code(5)
        ovsf_code(8, 1)
        code = CdmaConfig(sf=8).spreading_code()
        acquire(np.tile(code.astype(complex), 2), code)
        stats = design_cache_stats()
        for name in self.TABLES:
            assert name in stats, name
            assert stats[name]["currsize"] >= 1, name

    def test_tables_are_frozen(self):
        for arr in (
            m_sequence(7),
            gold_code(7, 2),
            ovsf_code(16, 3),
            CdmaConfig(sf=16).spreading_code(),
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_repeat_calls_hit_the_cache(self):
        from repro.caching import design_cache_stats

        a = gold_code(9, 17)
        before = design_cache_stats()["cdma.gold_code"]["hits"]
        b = gold_code(9, 17)
        after = design_cache_stats()["cdma.gold_code"]["hits"]
        assert a is b  # the same frozen object, not a copy
        assert after == before + 1

    def test_acq_fft_keyed_by_content(self):
        """Two equal-content code arrays share one conj-FFT table."""
        from repro.dsp.cdma import _acq_code_fft

        code = CdmaConfig(sf=16).spreading_code()
        assert _acq_code_fft(code) is _acq_code_fft(code.copy())


class TestSpreadDespread:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        code = gold_code(5)[:16].astype(float)
        sym = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        np.testing.assert_allclose(despread(spread(sym, code), code), sym, atol=1e-12)

    def test_wrong_chip_count(self):
        with pytest.raises(ValueError):
            despread(np.zeros(10), np.ones(16))

    def test_orthogonal_user_rejected(self):
        """A second user on an orthogonal OVSF branch despreads to ~zero."""
        rng = np.random.default_rng(1)
        c1 = ovsf_code(16, 1).astype(float)
        c2 = ovsf_code(16, 5).astype(float)
        sym = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        interference = spread(sym, c2)
        out = despread(interference, c1)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_roundtrip_any_ovsf_branch(self, idx):
        code = ovsf_code(16, idx).astype(float)
        sym = np.exp(1j * np.arange(8))
        np.testing.assert_allclose(despread(spread(sym, code), code), sym, atol=1e-12)


class TestAcquisition:
    def _chips(self, code, nsym, phase, sigma, seed):
        rng = np.random.default_rng(seed)
        sym = np.exp(1j * rng.uniform(0, 2 * np.pi, nsym))  # random data
        chips = spread(sym, code.astype(float))
        chips = np.roll(chips, phase)
        noise = sigma * (
            rng.standard_normal(len(chips)) + 1j * rng.standard_normal(len(chips))
        )
        return chips + noise

    def test_finds_correct_phase(self):
        code = CdmaConfig(sf=64).spreading_code()
        for phase in (0, 7, 33, 63):
            rx = self._chips(code, 16, phase, 0.3, seed=phase)
            res = acquire(rx, code, coherent_symbols=8)
            assert res.phase == phase
            assert res.detected

    def test_no_signal_not_detected(self):
        rng = np.random.default_rng(2)
        code = CdmaConfig(sf=64).spreading_code()
        noise = rng.standard_normal(64 * 8) + 1j * rng.standard_normal(64 * 8)
        res = acquire(noise, code, coherent_symbols=8)
        assert not res.detected

    def test_short_input_rejected(self):
        code = CdmaConfig(sf=64).spreading_code()
        with pytest.raises(ValueError):
            acquire(np.zeros(32), code)

    def test_statistics_vector_shape(self):
        code = CdmaConfig(sf=32).spreading_code()
        rx = self._chips(code, 4, 5, 0.1, seed=9)
        res = acquire(rx, code, coherent_symbols=4)
        assert res.statistics.shape == (32,)


class TestMeanAcqTime:
    def test_perfect_detection_floor(self):
        # pd=1, pfa=0: T = (2 + (cells-1)) * dwell / 2
        t = mean_acquisition_time(1.0, 0.0, cells=100, dwell=1e-3, penalty=1e-2)
        assert np.isclose(t, (2 + 99) * 1e-3 / 2)

    def test_low_pd_increases_time(self):
        t_hi = mean_acquisition_time(0.99, 1e-3, 256, 1e-3, 1e-2)
        t_lo = mean_acquisition_time(0.5, 1e-3, 256, 1e-3, 1e-2)
        assert t_lo > t_hi

    def test_false_alarms_penalize(self):
        t0 = mean_acquisition_time(0.9, 0.0, 256, 1e-3, 1.0)
        t1 = mean_acquisition_time(0.9, 0.1, 256, 1e-3, 1.0)
        assert t1 > t0

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_acquisition_time(0.0, 0.0, 10, 1e-3, 1e-2)
        with pytest.raises(ValueError):
            mean_acquisition_time(0.9, 1.0, 10, 1e-3, 1e-2)


class TestDll:
    def test_tracks_static_offset(self):
        """DLL should converge its strobe onto a half-chip initial error."""
        from scipy.signal import fftconvolve

        from repro.dsp.filters import srrc, upsample

        cfg = CdmaConfig(sf=32)
        code = cfg.spreading_code()
        rng = np.random.default_rng(3)
        nsym = 200
        sym = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, nsym)))
        chips = spread(sym, code)
        sps = cfg.chip_sps
        pulse = srrc(cfg.beta, sps, cfg.span)
        x = fftconvolve(upsample(chips, sps), pulse, mode="full")
        mf = fftconvolve(x, pulse[::-1], mode="full")
        gd = len(pulse) - 1
        dll = Dll(code, sps=sps, gain=0.15)
        # start half a chip early
        out = dll.process(mf, float(gd) - sps / 2, nsym)
        tau = np.asarray(dll.tau_history)
        # loop must slew ~ +sps/2 samples to compensate
        assert abs(tau[-1] - sps / 2) < 0.35 * sps
        # despread symbols at the end must be near-unit magnitude
        assert np.mean(np.abs(out[-50:])) > 0.9

    def test_validation(self):
        code = np.ones(8)
        with pytest.raises(ValueError):
            Dll(code, sps=1)
        with pytest.raises(ValueError):
            Dll(code, sps=4, delta=3.0)
        # the chip-sum kernels read every chip of a strobe at one
        # fraction, so a samples-per-chip that is not a whole number is
        # rejected by name instead of despreading off the chip grid
        for sps in (2.5, 4.0, "4", True):
            with pytest.raises(ValueError, match="sps"):
                Dll(code, sps=sps, gain=0.1)
        assert type(Dll(code, sps=np.int64(4)).sps) is int

    def test_truncated_burst_raises_instead_of_clipping(self):
        """Regression: strobes off the buffer end must raise, not clip.

        The despread used to clip the interpolation base into
        ``[0, len(x) - 2]``, so a strobe grid running past the end of a
        truncated burst silently correlated against dozens of copies of
        the edge sample -- a corrupted symbol presented as a valid one.
        The kernel now validates the required span up front.
        """
        code = CdmaConfig(sf=16).spreading_code()
        dll = Dll(code, sps=4, gain=0.0)

        def despread_at(x, start):
            return _interp_despread(x, code, np.array([start]), 4)

        # 16 chips x 4 sps = 64 samples needed (+1 interpolator tap)
        with pytest.raises(ValueError, match="outside the"):
            despread_at(np.ones(40, dtype=complex), 0.0)
        with pytest.raises(ValueError, match="outside the"):
            dll.process(np.ones(100, dtype=complex), 0.0, 2)
        # negative start positions are just as invalid
        with pytest.raises(ValueError, match="outside the"):
            despread_at(np.ones(100, dtype=complex), -1.0)
        # exactly enough samples is fine
        out = despread_at(np.ones(66, dtype=complex), 0.0)
        assert np.isfinite(out).all()

    def test_receive_pads_legitimate_tail_strobes(self):
        """A full burst whose last strobes land in the filter tail must
        still demodulate: the receive path zero-pads the matched filter
        output instead of tripping the span check (only a genuinely
        truncated burst raises)."""
        reg = RngRegistry(seed=21)
        cm = CdmaModem(CdmaConfig(sf=32))
        bits = reg.stream("b").integers(0, 2, 256).astype(np.uint8)
        tx = cm.transmit(bits)
        # a large delay pushes the settled strobe grid into the tail
        ch = SatelliteChannel(
            snr_sigma=0.05,
            delay=29 * cm.config.chip_sps,
            rng=reg.stream("n"),
        )
        out = cm.receive(ch.apply(tx), 256)
        assert np.mean(out["bits"] != bits) < 0.01

    def test_receive_rejects_truncated_burst(self):
        cm = CdmaModem(CdmaConfig(sf=16))
        bits = np.zeros(64, dtype=np.uint8)
        tx = cm.transmit(bits)
        with pytest.raises(ValueError):
            cm.receive(tx[: len(tx) // 3], 64)


class TestCdmaModemChain:
    def test_loopback_no_noise(self):
        cm = CdmaModem()
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 128).astype(np.uint8)
        out = cm.receive(cm.transmit(bits), 128)
        np.testing.assert_array_equal(out["bits"], bits)

    def test_loopback_with_channel(self):
        reg = RngRegistry(seed=11)
        cm = CdmaModem(CdmaConfig(sf=32))
        bits = reg.stream("b").integers(0, 2, 256).astype(np.uint8)
        tx = cm.transmit(bits)
        ch = SatelliteChannel(
            snr_sigma=0.15,
            phase=1.1,
            delay=13 * cm.config.chip_sps + 1.0,
            rng=reg.stream("n"),
        )
        out = cm.receive(ch.apply(tx), 256)
        assert np.mean(out["bits"] != bits) < 0.01
        assert out["acquisition"].phase in (12, 13, 14)

    def test_num_tx_samples_matches(self):
        cm = CdmaModem()
        bits = np.zeros(64, dtype=np.uint8)
        assert len(cm.transmit(bits)) == cm.num_tx_samples(64)

    def test_multi_user_separation(self):
        """Two users on orthogonal OVSF branches, same scrambler: both decode."""
        reg = RngRegistry(seed=12)
        cfg1 = CdmaConfig(sf=32, code_index=3)
        cfg2 = CdmaConfig(sf=32, code_index=9)
        m1, m2 = CdmaModem(cfg1), CdmaModem(cfg2)
        b1 = reg.stream("u1").integers(0, 2, 128).astype(np.uint8)
        b2 = reg.stream("u2").integers(0, 2, 128).astype(np.uint8)
        composite = m1.transmit(b1) + m2.transmit(b2)
        o1 = m1.receive(composite, 128)
        o2 = m2.receive(composite, 128)
        assert np.mean(o1["bits"] != b1) < 0.05
        assert np.mean(o2["bits"] != b2) < 0.05


class TestReturnBankReceive:
    def test_consecutive_results_do_not_alias(self):
        """Hold one composite's results across the next composite's call."""
        cfg = PayloadConfig(
            num_carriers=1, fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32
        )
        payload = RegenerativePayload(
            cfg, default_registry(cdma_config=CdmaConfig(sf=64))
        )
        payload.boot(modem="modem.cdma")
        bank = CdmaReturnBank.for_users(8, payload.demods[0].behaviour().config)
        rng = np.random.default_rng(1)
        sent = [
            [rng.integers(0, 2, 128).astype(np.uint8) for _ in range(8)]
            for _ in range(2)
        ]
        first = payload.process_return_link(bank.transmit(sent[0]), 8, 128)
        held = [
            (b.copy(), d["symbols"].copy(), d["dll_tau"].copy())
            for b, d in zip(first["bits"], first["diagnostics"])
        ]
        second = payload.process_return_link(bank.transmit(sent[1]), 8, 128)
        for u, (bits, symbols, tau) in enumerate(held):
            diag = first["diagnostics"][u]
            np.testing.assert_array_equal(first["bits"][u], bits)
            np.testing.assert_array_equal(diag["symbols"], symbols)
            np.testing.assert_array_equal(diag["dll_tau"], tau)
            np.testing.assert_array_equal(bits, sent[0][u])
            np.testing.assert_array_equal(second["bits"][u], sent[1][u])

    @pytest.mark.parametrize("n", [0, 1])
    def test_composite_too_short_to_acquire_raises(self, n):
        """An empty composite used to fail with an ``IndexError`` from the
        one-row filter's empty result."""
        bank = CdmaReturnBank.for_users(2)
        with pytest.raises(ValueError, match="acquisition window"):
            bank.receive(np.zeros(n, dtype=np.complex128), 32)

    @pytest.mark.parametrize("n", [0, 1])
    def test_burst_too_short_to_acquire_raises(self, n):
        """The scalar and batched receivers: an empty burst used to fail
        with an ``AxisError`` from the filter's 1-D empty result."""
        cm = CdmaModem()
        with pytest.raises(ValueError, match="acquisition window"):
            cm.receive(np.zeros(n, dtype=np.complex128), 32)
        with pytest.raises(ValueError, match="acquisition window"):
            cm.receive_batch(np.zeros((3, n), dtype=np.complex128), 32)
