"""Tests for the radiation environment and effects models."""

import numpy as np
import pytest

from repro.radiation import (
    GEO,
    LEO,
    MEO,
    RadiationEnvironment,
    SeuProcess,
    SolarActivity,
    TidAccumulator,
)
from repro.sim import RngRegistry


class TestEnvironment:
    def test_geo_nominal_matches_table1(self):
        """The paper's Table 1: 1e-7 SEU/bit/day for a GEO satellite."""
        env = RadiationEnvironment(orbit=GEO, activity=SolarActivity.NOMINAL)
        assert np.isclose(env.seu_rate_per_bit_day(), 1e-7, rtol=1e-6)

    def test_per_second_consistent(self):
        env = RadiationEnvironment()
        assert np.isclose(
            env.seu_rate_per_bit_second() * 86_400, env.seu_rate_per_bit_day()
        )

    def test_solar_max_increases_rates(self):
        nom = RadiationEnvironment(activity=SolarActivity.NOMINAL)
        mx = RadiationEnvironment(activity=SolarActivity.MAX)
        assert mx.seu_rate_per_bit_day() > nom.seu_rate_per_bit_day()
        assert mx.dose_rate_krad_year() > nom.dose_rate_krad_year()

    def test_quiet_decreases_rates(self):
        nom = RadiationEnvironment(activity=SolarActivity.NOMINAL)
        q = RadiationEnvironment(activity=SolarActivity.QUIET)
        assert q.seu_rate_per_bit_day() < nom.seu_rate_per_bit_day()

    def test_leo_softer_than_geo(self):
        geo = RadiationEnvironment(orbit=GEO)
        leo = RadiationEnvironment(orbit=LEO)
        assert leo.seu_rate_per_bit_day() < geo.seu_rate_per_bit_day()

    def test_meo_belt_dose_dominates(self):
        geo = RadiationEnvironment(orbit=GEO)
        meo = RadiationEnvironment(orbit=MEO)
        assert meo.dose_rate_krad_year() > geo.dose_rate_krad_year()

    def test_device_factor_scales_seu(self):
        hard = RadiationEnvironment(device_seu_factor=1.0)
        soft = RadiationEnvironment(device_seu_factor=50.0)
        assert np.isclose(
            soft.seu_rate_per_bit_day(), 50 * hard.seu_rate_per_bit_day()
        )

    def test_expected_upsets(self):
        env = RadiationEnvironment()
        # 1e6 bits over 10 days at 1e-7/bit/day = 1 upset
        assert np.isclose(env.expected_upsets(1_000_000, 10 * 86_400), 1.0)

    def test_expected_upsets_validation(self):
        with pytest.raises(ValueError):
            RadiationEnvironment().expected_upsets(-1, 10)


class TestSeuProcess:
    def test_poisson_mean(self):
        env = RadiationEnvironment(device_seu_factor=1000.0)
        rng = RngRegistry(1).stream("seu")
        proc = SeuProcess(env, num_bits=10_000_000, rng=rng)
        day = 86_400.0
        counts = [len(proc.upsets_in(day)) for _ in range(200)]
        expected = env.expected_upsets(10_000_000, day)
        assert 0.8 * expected < np.mean(counts) < 1.2 * expected

    def test_indices_in_range(self):
        env = RadiationEnvironment(device_seu_factor=1e6)
        proc = SeuProcess(env, num_bits=1000, rng=RngRegistry(2).stream("s"))
        idx = proc.upsets_in(86_400.0)
        assert len(idx) > 0
        assert idx.min() >= 0 and idx.max() < 1000

    def test_validation(self):
        env = RadiationEnvironment()
        with pytest.raises(ValueError):
            SeuProcess(env, 0, RngRegistry(0).stream("x"))
        proc = SeuProcess(env, 10, RngRegistry(0).stream("x"))
        with pytest.raises(ValueError):
            proc.upsets_in(-1.0)


class TestTid:
    def test_mh1rt_lifetime_exceeds_15_years_at_geo(self):
        """200 krad at GEO dose rates: far beyond a satellite lifetime."""
        acc = TidAccumulator(tolerance_krad=200.0)
        acc.accumulate(RadiationEnvironment(orbit=GEO), 15.0)
        assert acc.state != "failed"

    def test_state_transitions(self):
        acc = TidAccumulator(tolerance_krad=10.0, degradation_onset=0.8)
        env = RadiationEnvironment(orbit=MEO, activity=SolarActivity.MAX)
        assert acc.state == "nominal"
        while acc.state == "nominal":
            acc.accumulate(env, 0.05)
        assert acc.state == "degraded"
        while acc.state == "degraded":
            acc.accumulate(env, 0.05)
        assert acc.state == "failed"

    def test_validation(self):
        with pytest.raises(ValueError):
            TidAccumulator(0.0)
        with pytest.raises(ValueError):
            TidAccumulator(100.0, degradation_onset=0.0)
        acc = TidAccumulator(100.0)
        with pytest.raises(ValueError):
            acc.accumulate(RadiationEnvironment(), -1.0)
