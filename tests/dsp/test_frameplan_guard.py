"""Tests for frame-plan guard times, burst sizing and slot release."""

import numpy as np
import pytest

from repro.dsp.tdma import FramePlan


class TestGuardTimes:
    def test_guard_and_usable_duration(self):
        fp = FramePlan(slots_per_frame=8, frame_duration=0.024, guard_fraction=0.05)
        assert np.isclose(fp.guard_time, 0.003 * 0.05)
        assert np.isclose(fp.usable_slot_duration, 0.003 * 0.9)

    def test_zero_guard(self):
        fp = FramePlan(guard_fraction=0.0)
        assert fp.usable_slot_duration == fp.slot_duration

    def test_guard_validation(self):
        with pytest.raises(ValueError):
            FramePlan(guard_fraction=0.5)
        with pytest.raises(ValueError):
            FramePlan(guard_fraction=-0.1)


class TestBurstWindow:
    def test_paper_burst_fits_sumts_slot(self):
        """The default 308-symbol burst fits a 3 ms slot at 2.048 Msym/s."""
        from repro.dsp.tdma import BurstFormat

        fp = FramePlan()
        assert BurstFormat().total / 2.048e6 <= fp.usable_slot_duration


class TestRelease:
    def test_release_frees_slots(self):
        fp = FramePlan(num_carriers=2, slots_per_frame=2)
        fp.assign("t1", 0, 0)
        fp.assign("t1", 1, 0)
        fp.assign("t2", 0, 1)
        assert fp.release("t1") == 2
        assert fp.occupant(0, 0) is None
        assert fp.occupant(0, 1) == "t2"
        fp.assign("t3", 0, 0)  # slot reusable

    def test_release_unknown_terminal(self):
        fp = FramePlan()
        assert fp.release("ghost") == 0
