"""Tests for per-carrier traffic-plane health monitoring."""

import pytest

from repro.robustness.fdir.health import (
    BurstHealth,
    CarrierHealthMonitor,
    CrcFailureTracker,
    HealthMonitorBank,
    HealthThresholds,
)

pytestmark = pytest.mark.fdir

CLEAN = {
    "uw_metric": 0.95,
    "timing_lock": 0.031,
    "carrier_lock": 0.73,
    "snr_db": 11.0,
}
NOISE = {
    "uw_metric": 0.59,
    "timing_lock": 0.015,
    "carrier_lock": 0.16,
    "snr_db": -4.0,
}


class TestThresholds:
    def test_defaults_pass_clean_and_fail_noise(self):
        mon = CarrierHealthMonitor(0)
        assert mon.observe_burst(CLEAN).healthy
        v = mon.observe_burst(NOISE)
        assert not v.healthy
        assert "uw_low" in v.reasons
        assert "carrier_unlock" in v.reasons
        assert "snr_low" in v.reasons

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthThresholds(trip_count=0)
        with pytest.raises(ValueError):
            HealthThresholds(clear_count=0)
        with pytest.raises(ValueError):
            HealthThresholds(crc_window=0)

    def test_sync_failure_dominates_metrics(self):
        mon = CarrierHealthMonitor(0)
        v = mon.observe_burst({"sync_failed": "no UW", **CLEAN})
        assert not v.healthy
        assert v.reasons == ("sync_failed",)

    def test_equipment_failure_is_unhealthy(self):
        mon = CarrierHealthMonitor(0)
        v = mon.observe_burst({"equipment_failed": "terminal"})
        assert not v.healthy
        assert v.reasons == ("equipment_failed",)

    def test_missing_metrics_are_not_judged(self):
        mon = CarrierHealthMonitor(0)
        assert mon.observe_burst({}).healthy


class TestCrcTracker:
    def test_windowed_rate(self):
        t = CrcFailureTracker(window=4)
        assert t.rate == 0.0
        for ok in (True, True, False, False):
            t.record(ok)
        assert t.rate == pytest.approx(0.5)
        # window slides: two oldest (True) fall out
        t.record(False)
        t.record(False)
        assert t.rate == pytest.approx(1.0)
        assert t.total == 6 and t.failures == 4

    def test_reset_clears_window_not_totals(self):
        t = CrcFailureTracker(window=4)
        t.record(False)
        t.reset()
        assert t.rate == 0.0
        assert t.total == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CrcFailureTracker(window=0)


class TestHysteresis:
    def test_trip_after_consecutive_bad(self):
        mon = CarrierHealthMonitor(0)
        for _ in range(2):
            mon.observe_burst(NOISE)
        assert not mon.tripped
        mon.observe_burst(NOISE)
        assert mon.tripped
        assert mon.trips == 1

    def test_single_bad_burst_does_not_trip(self):
        mon = CarrierHealthMonitor(0)
        for _ in range(10):
            mon.observe_burst(CLEAN)
            mon.observe_burst(NOISE)
        assert not mon.tripped
        assert mon.unhealthy_bursts == 10

    def test_clear_after_consecutive_good(self):
        mon = CarrierHealthMonitor(0)
        for _ in range(3):
            mon.observe_burst(NOISE)
        assert mon.tripped
        mon.observe_burst(CLEAN)
        mon.observe_burst(CLEAN)
        assert mon.tripped  # still latched mid-streak
        mon.observe_burst(CLEAN)
        assert not mon.tripped
        assert mon.clears == 1

    def test_reset_streaks_restarts_debounce(self):
        mon = CarrierHealthMonitor(0)
        mon.observe_burst(NOISE)
        mon.observe_burst(NOISE)
        mon.reset_streaks()
        mon.observe_burst(NOISE)
        assert not mon.tripped  # streak restarted by the recovery action

    def test_crc_rate_counts_as_unhealthy_with_clean_demod(self):
        """Decoder-side degradation: clean metrics, failing CRCs."""
        mon = CarrierHealthMonitor(0)
        mon.observe_burst(CLEAN)
        for _ in range(6):
            mon.observe_decode(False)
        assert mon.tripped
        assert mon.unhealthy_bursts > 0

    def test_interleaved_clean_bursts_defer_to_decoder_check(self):
        """A healthy burst between CRC failures resets the streak: the
        monitor does not trip, the arbiter's shared-decoder check (which
        reads the CRC trackers directly) owns this failure class."""
        mon = CarrierHealthMonitor(0)
        for _ in range(6):
            mon.observe_burst(CLEAN)
            mon.observe_decode(False)
        assert not mon.tripped
        assert mon.crc.rate > mon.thresholds.crc_fail_rate_max

    def test_crc_ok_never_trips(self):
        mon = CarrierHealthMonitor(0)
        for _ in range(10):
            mon.observe_burst(CLEAN)
            mon.observe_decode(True)
        assert not mon.tripped


class TestBank:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitorBank(0)
        with pytest.raises(ValueError):
            HealthMonitorBank(3, common_mode_fraction=0.0)

    def test_tripped_carriers(self):
        bank = HealthMonitorBank(3)
        for _ in range(3):
            bank.observe_burst(1, NOISE)
        assert bank.tripped_carriers() == [1]

    def test_common_mode_requires_majority(self):
        bank = HealthMonitorBank(3)
        for k in range(3):
            bank.observe_burst(k, CLEAN)
        assert not bank.common_mode()
        bank.observe_burst(0, NOISE)
        assert not bank.common_mode()  # 1/3 < 0.66
        bank.observe_burst(1, NOISE)
        assert bank.common_mode()  # 2/3 >= 0.66

    def test_common_mode_restricted_to_served(self):
        bank = HealthMonitorBank(3)
        bank.observe_burst(0, CLEAN)
        bank.observe_burst(1, NOISE)
        bank.observe_burst(2, NOISE)
        # among the served pair {0, 1} only one is bad: not common mode
        assert not bank.common_mode(among=[0, 1])
        assert bank.common_mode(among=[1, 2])

    def test_common_mode_needs_two_voters(self):
        bank = HealthMonitorBank(3)
        bank.observe_burst(0, NOISE)
        assert not bank.common_mode(among=[0])
