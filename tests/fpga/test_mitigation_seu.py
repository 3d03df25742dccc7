"""Tests for SEU mitigation techniques and the SEU injector."""

import numpy as np
import pytest

from repro.fpga import (
    BlindScrubber,
    Bitstream,
    DuplicationWithComparison,
    Fpga,
    ReadbackScrubber,
    SeuInjector,
    TmrProtectedFunction,
)
from repro.radiation import GEO, RadiationEnvironment, SolarActivity
from repro.sim import RngRegistry


def configured_fpga(seed=0, **kw):
    kw.setdefault("rows", 8)
    kw.setdefault("cols", 8)
    kw.setdefault("bits_per_clb", 32)
    fpga = Fpga(**kw)
    bs = Bitstream.random(
        "f", kw["rows"], kw["cols"], kw["bits_per_clb"], RngRegistry(seed).stream("b")
    )
    fpga.configure(bs)
    return fpga


class TestTmr:
    def test_failure_probability_is_pe_squared(self):
        """The paper's claim: P(false event) = (pe)^2 (leading order)."""
        pe = 0.02
        tmr = TmrProtectedFunction(pe)
        rng = RngRegistry(1).stream("tmr")
        wrong = tmr.evaluate(2_000_000, rng)
        measured = wrong.mean()
        theory = tmr.theoretical_error_probability()
        assert np.isclose(theory, 3 * pe**2 * (1 - pe) + pe**3)
        assert 0.8 * theory < measured < 1.2 * theory
        # and it is orders of magnitude below pe itself
        assert measured < pe / 10

    def test_gate_overhead_triples(self):
        tmr = TmrProtectedFunction(0.01)
        assert tmr.gate_overhead(10_000) > 30_000

    def test_validation(self):
        with pytest.raises(ValueError):
            TmrProtectedFunction(1.5)
        with pytest.raises(ValueError):
            TmrProtectedFunction(0.1, replicas=2)
        with pytest.raises(ValueError):
            TmrProtectedFunction(0.1).evaluate(0, RngRegistry(0).stream("x"))


class TestDuplication:
    def test_detects_but_does_not_correct(self):
        pe = 0.05
        dup = DuplicationWithComparison(pe)
        rng = RngRegistry(2).stream("dup")
        res = dup.evaluate(500_000, rng)
        # wrong outputs occur at ~pe (no correction)
        assert 0.9 * pe < res["wrong"].mean() < 1.1 * pe
        # nearly all wrong outputs are detected (missed only when both
        # replicas fail identically, prob pe^2)
        missed = np.mean(res["wrong"] & ~res["detected"])
        assert missed < pe**2 * 2

    def test_gate_overhead_doubles(self):
        dup = DuplicationWithComparison(0.01)
        assert 2 * 10_000 < dup.gate_overhead(10_000) < 3 * 10_000

    def test_tmr_costs_more_than_duplication(self):
        """The paper's §4.3 trade-off."""
        tmr = TmrProtectedFunction(0.01)
        dup = DuplicationWithComparison(0.01)
        assert tmr.gate_overhead(50_000) > dup.gate_overhead(50_000)


class TestReadbackScrubber:
    @pytest.mark.parametrize("mode", ["golden", "crc"])
    def test_repairs_all_corruption(self, mode):
        fpga = configured_fpga()
        fpga.power_on()
        scrub = ReadbackScrubber(fpga, mode=mode)
        scrub.snapshot()
        fpga.upset_bits(np.arange(0, 2048, 97))
        assert fpga.corrupted_bits() > 0
        scrub.scan_and_repair()
        assert fpga.corrupted_bits() == 0

    def test_crc_mode_uses_less_reference_memory(self):
        """The paper: CRC comparison 'is less gate consuming'."""
        fpga = configured_fpga(bits_per_clb=64)
        golden = ReadbackScrubber(fpga, mode="golden")
        crc = ReadbackScrubber(fpga, mode="crc")
        assert crc.reference_memory_bits() < golden.reference_memory_bits()

    def test_requires_partial_support(self):
        fpga = configured_fpga(supports_partial=False)
        with pytest.raises(ValueError):
            ReadbackScrubber(fpga)

    def test_crc_mode_requires_snapshot(self):
        fpga = configured_fpga()
        scrub = ReadbackScrubber(fpga, mode="crc")
        with pytest.raises(RuntimeError):
            scrub.scan_and_repair()

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ReadbackScrubber(configured_fpga(), mode="magic")

    def test_no_repair_on_clean_device(self):
        fpga = configured_fpga()
        scrub = ReadbackScrubber(fpga, mode="golden")
        assert scrub.scan_and_repair() == 0


class TestBlindScrubber:
    def test_scrub_clears_everything(self):
        fpga = configured_fpga()
        scrub = BlindScrubber(fpga, period=30.0)
        fpga.upset_bits(np.arange(0, 1000, 13))
        scrub.scrub()
        assert fpga.corrupted_bits() == 0
        assert scrub.scrubs == 1

    def test_residual_upsets_scale_with_period(self):
        fpga = configured_fpga()
        fast = BlindScrubber(fpga, period=10.0)
        slow = BlindScrubber(fpga, period=1000.0)
        rate = 0.01
        assert slow.expected_residual_upsets(rate) == 100 * fast.expected_residual_upsets(rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlindScrubber(configured_fpga(), period=0.0)
        with pytest.raises(ValueError):
            BlindScrubber(configured_fpga()).expected_residual_upsets(-1)


class TestSeuInjector:
    def test_advance_injects_poisson_counts(self):
        env = RadiationEnvironment(orbit=GEO, device_seu_factor=1e4)
        fpga = configured_fpga(rows=16, cols=16, bits_per_clb=64)
        inj = SeuInjector(fpga, env, RngRegistry(4).stream("seu"))
        total = 0
        for _ in range(50):
            total += inj.advance(86_400.0)
        expected = 50 * fpga.num_config_bits * env.seu_rate_per_bit_day()
        assert 0.7 * expected < total < 1.3 * expected

    def test_scrubbing_beats_no_mitigation(self):
        """End-to-end: corruption level with vs without periodic scrubbing."""
        env = RadiationEnvironment(device_seu_factor=5e5)  # accelerated test
        reg = RngRegistry(7)
        day = 86_400.0

        f1 = configured_fpga(seed=1)
        i1 = SeuInjector(f1, env, reg.stream("a"))
        for _ in range(20):
            i1.advance(day / 20)
        unmitigated = f1.corrupted_bits()

        f2 = configured_fpga(seed=1)
        i2 = SeuInjector(f2, env, reg.stream("b"))
        s2 = BlindScrubber(f2, period=day / 20)
        for _ in range(20):
            i2.advance(day / 20)
            s2.scrub()
        assert f2.corrupted_bits() == 0
        assert unmitigated > 0
