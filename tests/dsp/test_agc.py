"""Tests for the AGC."""

import numpy as np
import pytest

from repro.dsp.agc import Agc, burst_gain


class TestBurstGain:
    def test_exact_for_constant_amplitude(self):
        assert np.isclose(burst_gain(0.5 * np.ones(64)), 2.0)

    def test_target_parameter(self):
        assert np.isclose(burst_gain(np.ones(10), target_rms=3.0), 3.0)

    def test_zero_signal_unity(self):
        assert burst_gain(np.zeros(10)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            burst_gain(np.array([]))


class TestAgc:
    def test_converges_to_target_from_low_input(self):
        agc = Agc(target_rms=1.0, mu=0.1)
        x = 0.1 * np.exp(1j * np.linspace(0, 100, 5000))
        y = agc.process(x)
        rms_tail = np.sqrt(np.mean(np.abs(y[-500:]) ** 2))
        assert abs(rms_tail - 1.0) < 0.05

    def test_converges_from_high_input(self):
        agc = Agc(target_rms=1.0, mu=0.1)
        x = 8.0 * np.exp(1j * np.linspace(0, 100, 5000))
        y = agc.process(x)
        rms_tail = np.sqrt(np.mean(np.abs(y[-500:]) ** 2))
        assert abs(rms_tail - 1.0) < 0.05

    def test_state_persists_across_blocks(self):
        agc = Agc(mu=0.1)
        x = 0.2 * np.ones(4000, dtype=complex)
        agc.process(x[:2000])
        g_mid = agc.gain
        agc.process(x[2000:])
        assert abs(agc.gain - 5.0) < 0.5
        assert agc.gain >= g_mid * 0.5  # no reset between blocks

    def test_gain_clamped(self):
        agc = Agc(mu=0.5, max_gain=10.0)
        agc.process(np.full(5000, 1e-6, dtype=complex))
        assert agc.gain <= 10.0

    def test_tracks_level_step(self):
        agc = Agc(mu=0.1)
        x = np.concatenate([
            0.5 * np.ones(3000, dtype=complex),
            2.0 * np.ones(3000, dtype=complex),
        ])
        y = agc.process(x)
        rms_tail = np.sqrt(np.mean(np.abs(y[-500:]) ** 2))
        assert abs(rms_tail - 1.0) < 0.1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Agc(target_rms=0.0)
        with pytest.raises(ValueError):
            Agc(mu=1.5)
        with pytest.raises(ValueError):
            Agc(min_gain=1.0, max_gain=0.5)

    def test_gain_history_bounded_on_long_runs(self):
        """Regression: the gain history must not grow without bound.

        The continuous front end runs the AGC forever; the history used
        to be a plain list appending one float per 32-sample chunk, a
        slow per-carrier memory leak.  It is now a ring buffer capped at
        ``HISTORY_MAXLEN`` entries (same fix as the timing loops).
        """
        from repro.dsp.timing import HISTORY_MAXLEN

        agc = Agc(mu=0.1)
        x = 0.5 * np.ones(4096, dtype=complex)
        chunks_needed = HISTORY_MAXLEN * 32  # one entry per 32 samples
        processed = 0
        while processed <= chunks_needed:
            agc.process(x)
            processed += len(x)
        assert len(agc.gain_history) == HISTORY_MAXLEN
        assert agc.gain_history.maxlen == HISTORY_MAXLEN
        # the retained tail is the newest gains (converged, not startup)
        assert abs(agc.gain_history[-1] - 2.0) < 0.1
