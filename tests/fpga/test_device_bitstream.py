"""Tests for the FPGA device model and bitstream container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import Bitstream, Fpga, FpgaError, PowerState
from repro.sim import RngRegistry


def make_pair(rows=8, cols=8, bpc=16, seed=0, **kw):
    rng = RngRegistry(seed).stream("bs")
    fpga = Fpga(rows=rows, cols=cols, bits_per_clb=bpc, **kw)
    bs = Bitstream.random("modem.test", rows, cols, bpc, rng)
    return fpga, bs


class TestBitstream:
    def test_roundtrip_serialization(self):
        _, bs = make_pair()
        restored = Bitstream.from_bytes(bs.to_bytes())
        assert restored.function == bs.function
        assert restored.version == bs.version
        np.testing.assert_array_equal(restored.frames, bs.frames)

    def test_crc_stable(self):
        _, bs = make_pair()
        assert bs.crc32() == Bitstream.from_bytes(bs.to_bytes()).crc32()

    def test_corrupted_file_rejected(self):
        _, bs = make_pair()
        data = bytearray(bs.to_bytes())
        data[30] ^= 0xFF
        with pytest.raises(ValueError):
            Bitstream.from_bytes(bytes(data))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            Bitstream.from_bytes(b"short")

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Bitstream("f", 2, 2, 4, np.zeros((2, 2, 5), dtype=np.uint8))

    def test_nonbinary_frames_rejected(self):
        with pytest.raises(ValueError):
            Bitstream("f", 1, 1, 4, np.full((1, 1, 4), 3, dtype=np.uint8))

    def test_num_bits(self):
        _, bs = make_pair(rows=4, cols=4, bpc=8)
        assert bs.num_bits == 4 * 4 * 8

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_serialization_roundtrip_any_version(self, version):
        rng = np.random.default_rng(1)
        bs = Bitstream.random("f", 2, 3, 8, rng, version=version)
        assert Bitstream.from_bytes(bs.to_bytes()).version == version


class TestFpgaLifecycle:
    def test_initial_state_off_unconfigured(self):
        fpga, _ = make_pair()
        assert fpga.power is PowerState.OFF
        assert fpga.loaded_function is None
        assert not fpga.is_functional()

    def test_power_on_requires_configuration(self):
        fpga, _ = make_pair()
        with pytest.raises(FpgaError):
            fpga.power_on()

    def test_configure_then_on_is_functional(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.power_on()
        assert fpga.is_functional()
        assert fpga.loaded_function == "modem.test"

    def test_global_reload_requires_off(self):
        """The paper's sequence: switch off before reloading."""
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.power_on()
        with pytest.raises(FpgaError):
            fpga.configure(bs)
        fpga.power_off()
        fpga.configure(bs)  # now legal

    def test_geometry_mismatch_rejected(self):
        fpga, _ = make_pair()
        rng = np.random.default_rng(0)
        wrong = Bitstream.random("f", 4, 4, 16, rng)
        with pytest.raises(FpgaError):
            fpga.configure(wrong)

    def test_config_crc_matches_bitstream(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        assert fpga.config_crc32() == bs.crc32()

    def test_config_load_time(self):
        fpga, bs = make_pair()
        fpga.config_write_rate = 1e6
        assert np.isclose(fpga.config_load_seconds(bs), bs.num_bits / 1e6)


class TestReadbackAndPartial:
    def test_readback_returns_loaded_frame(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        np.testing.assert_array_equal(fpga.readback(3, 5), bs.frames[3, 5])

    def test_readback_runs_while_on(self):
        """§4.3: CLBs 'can be read ... without interrupting operations'."""
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.power_on()
        fpga.readback(0, 0)
        assert fpga.power is PowerState.ON

    def test_partial_configure_while_on(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.power_on()
        frame = np.ones(16, dtype=np.uint8)
        fpga.partial_configure(2, 2, frame)
        np.testing.assert_array_equal(fpga.readback(2, 2), frame)

    def test_partial_unsupported_device(self):
        """§4.4: 'major FPGAs are not partially configurable'."""
        fpga, bs = make_pair(supports_partial=False)
        fpga.configure(bs)
        with pytest.raises(FpgaError):
            fpga.partial_configure(0, 0, np.zeros(16, dtype=np.uint8))
        with pytest.raises(FpgaError):
            fpga.rewrite_all_from_golden()

    def test_address_validation(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        with pytest.raises(FpgaError):
            fpga.readback(8, 0)
        with pytest.raises(FpgaError):
            fpga.partial_configure(0, 9, np.zeros(16, dtype=np.uint8))

    def test_unconfigured_operations_fail(self):
        fpga, _ = make_pair()
        with pytest.raises(FpgaError):
            fpga.readback(0, 0)
        with pytest.raises(FpgaError):
            fpga.config_crc32()
        with pytest.raises(FpgaError):
            fpga.upset_bits(np.array([0]))


class TestIntegrity:
    def test_upset_changes_crc_and_counts(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        crc0 = fpga.config_crc32()
        fpga.upset_bits(np.array([0, 100, 500]))
        assert fpga.corrupted_bits() == 3
        assert fpga.config_crc32() != crc0

    def test_double_upset_same_bit_cancels(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.upset_bits(np.array([42]))
        fpga.upset_bits(np.array([42]))
        assert fpga.corrupted_bits() == 0

    def test_corrupted_clbs_addresses(self):
        fpga, bs = make_pair(rows=4, cols=4, bpc=8)
        fpga.configure(bs)
        # flip a bit in CLB (1, 2): flat index = ((1*4)+2)*8 + 3
        fpga.upset_bits(np.array([(1 * 4 + 2) * 8 + 3]))
        corrupted = [
            (r, c)
            for r in range(4)
            for c in range(4)
            if not np.array_equal(fpga.readback(r, c), fpga.golden_frame(r, c))
        ]
        assert corrupted == [(1, 2)]

    def test_repair_clb_restores(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.upset_bits(np.array([17]))
        # 16 bits per CLB on an 8-wide grid: bit 17 sits in CLB (0, 1)
        fpga.repair_clb(0, 1)
        assert fpga.corrupted_bits() == 0

    def test_essential_upset_breaks_function(self):
        fpga, bs = make_pair(essential_fraction=1.0)  # every bit essential
        fpga.configure(bs)
        fpga.power_on()
        fpga.upset_bits(np.array([7]))
        assert not fpga.is_functional()
        fpga.rewrite_all_from_golden()
        assert fpga.is_functional()

    def test_nonessential_upset_keeps_function(self):
        fpga, bs = make_pair(rows=16, cols=16, bpc=64, essential_fraction=0.001)
        fpga.configure(bs)
        fpga.power_on()
        # flipping one bit is overwhelmingly likely non-essential; find one
        mask = fpga._essential_mask.reshape(-1)
        safe = int(np.nonzero(~mask)[0][0])
        fpga.upset_bits(np.array([safe]))
        assert fpga.is_functional()

    def test_upset_index_validation(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        with pytest.raises(FpgaError):
            fpga.upset_bits(np.array([fpga.num_config_bits]))

    def test_stats_counters(self):
        fpga, bs = make_pair()
        fpga.configure(bs)
        fpga.readback(0, 0)
        fpga.upset_bits(np.array([1, 2]))
        assert fpga.stats["global_loads"] == 1
        assert fpga.stats["readbacks"] == 1
        assert fpga.stats["upsets_injected"] == 2
