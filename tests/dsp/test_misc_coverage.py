"""Gap-filling tests for smaller public APIs."""

import numpy as np
import pytest

from repro.dsp.carrier import DecisionDirectedLoop
from repro.dsp.filters import FirFilter, design_lowpass
from repro.dsp.modem import PskModem


class TestDecisionDirectedLoopOrders:
    @pytest.mark.parametrize("order", [2, 8])
    def test_tracks_static_phase(self, order):
        rng = np.random.default_rng(order)
        m = PskModem(order)
        nbits = 4000 * m.bits_per_symbol
        sym = m.modulate(rng.integers(0, 2, nbits).astype(np.uint8))
        # small offset within the decision region of the constellation
        rx = sym * np.exp(1j * 0.1)
        loop = DecisionDirectedLoop(order=order, bn_ts=0.02)
        out = loop.process(rx)
        core = out[1500:]
        d = np.abs(core[:, None] - m.points[None, :]).min(axis=1)
        assert np.sqrt(np.mean(d**2)) < 0.15

    def test_bpsk_decision_rule(self):
        loop = DecisionDirectedLoop(order=2)
        assert loop._decide(0.9 + 0.1j) == 1.0
        assert loop._decide(-0.3 + 0.2j) == -1.0

    def test_8psk_decision_on_grid(self):
        loop = DecisionDirectedLoop(order=8)
        for k in range(8):
            point = np.exp(1j * 2 * np.pi * k / 8)
            assert abs(loop._decide(point) - point) < 1e-9


class TestFirMisc:
    def test_group_delay(self):
        f = FirFilter(design_lowpass(41, 0.2))
        assert f.group_delay == 20.0

    def test_oneshot_call_does_not_touch_state(self):
        f = FirFilter(design_lowpass(9, 0.3))
        f.process(np.ones(20))
        tail_before = f._tail.copy()
        f(np.zeros(30))
        np.testing.assert_array_equal(f._tail, tail_before)


class TestPsk8Soft:
    def test_8psk_soft_hard_consistency(self):
        rng = np.random.default_rng(3)
        m = PskModem(8)
        bits = rng.integers(0, 2, 300 * 3).astype(np.uint8)
        noisy = m.modulate(bits) + 0.05 * (
            rng.standard_normal(300) + 1j * rng.standard_normal(300)
        )
        llr = m.demodulate_soft(noisy, noise_var=0.005)
        np.testing.assert_array_equal(
            (llr < 0).astype(np.uint8), m.demodulate_hard(noisy)
        )
