"""Tests for the latch-up model (§4.2 'other effects')."""

import numpy as np
import pytest

from repro.radiation import LatchUpModel
from repro.sim import RngRegistry


class TestLatchUp:
    def test_unprotected_device_destroyed_by_first_event(self):
        lu = LatchUpModel(rate_per_device_day=10.0, protected=False)
        lu.advance(1.0, RngRegistry(1).stream("lu"))
        assert lu.events > 0
        assert lu.destroyed
        # further exposure is moot
        assert lu.advance(100.0, RngRegistry(1).stream("lu2")) == 0

    def test_protected_device_survives_with_outage(self):
        lu = LatchUpModel(rate_per_device_day=10.0, protected=True,
                          recovery_seconds=5.0)
        n = lu.advance(1.0, RngRegistry(2).stream("lu"))
        assert n > 0
        assert not lu.destroyed
        assert np.isclose(lu.outage_seconds, 5.0 * n)

    def test_event_rate_poisson_mean(self):
        lu = LatchUpModel(rate_per_device_day=0.5, protected=True)
        rng = RngRegistry(3).stream("lu")
        total = sum(lu.advance(1.0, rng) for _ in range(2000))
        assert 0.85 * 1000 < total < 1.15 * 1000

    def test_rare_events_at_realistic_rate(self):
        """At the default 1e-4/day a 15-year mission sees only a few."""
        lu = LatchUpModel(protected=True)
        rng = RngRegistry(4).stream("lu")
        total = lu.advance(15 * 365.0, rng)
        assert total < 10

    def test_validation(self):
        with pytest.raises(ValueError):
            LatchUpModel(rate_per_device_day=-1.0)
        with pytest.raises(ValueError):
            LatchUpModel().advance(-1.0, RngRegistry(0).stream("x"))
