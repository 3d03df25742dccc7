"""Tests for partial-region reconfiguration (§4.4 chip-per-function)."""

import numpy as np
import pytest

from repro.core import default_registry
from repro.core.equipment import EquipmentError, ReconfigurableEquipment
from repro.fpga import Bitstream, Fpga, FpgaError, PowerState
from repro.sim import RngRegistry

GEOM = (8, 8, 32)


def configured(**kw):
    kw.setdefault("rows", GEOM[0])
    kw.setdefault("cols", GEOM[1])
    kw.setdefault("bits_per_clb", GEOM[2])
    fpga = Fpga(**kw)
    bs = Bitstream.random("base", *GEOM, RngRegistry(0).stream("bs"))
    fpga.configure(bs)
    fpga.power_on()
    return fpga


def read_all_frames(fpga):
    """Every CLB's frame, read back one address at a time."""
    return np.array(
        [[fpga.readback(r, c) for c in range(fpga.cols)] for r in range(fpga.rows)]
    )


class TestConfigureRegion:
    def test_rewrites_only_the_region(self):
        fpga = configured()
        before = read_all_frames(fpga)
        region = np.ones((2, 3, GEOM[2]), dtype=np.uint8)
        fpga.configure_region(1, 2, region)
        after = read_all_frames(fpga)
        np.testing.assert_array_equal(after[1:3, 2:5], region)
        mask = np.ones((8, 8), dtype=bool)
        mask[1:3, 2:5] = False
        np.testing.assert_array_equal(after[mask], before[mask])

    def test_device_stays_on(self):
        """The §4.3 property: partial configuration does not interrupt."""
        fpga = configured()
        fpga.configure_region(0, 0, np.zeros((1, 1, GEOM[2]), dtype=np.uint8))
        assert fpga.power is PowerState.ON

    def test_golden_updated_by_default(self):
        fpga = configured()
        fpga.configure_region(0, 0, np.ones((2, 2, GEOM[2]), dtype=np.uint8))
        assert fpga.corrupted_bits() == 0  # region is the new reference
        assert fpga.is_functional()

    def test_golden_preserved_when_asked(self):
        fpga = configured()
        new = 1 - fpga.golden_frame(0, 0)
        fpga.configure_region(
            0, 0, new[None, None, :], update_golden=False
        )
        assert fpga.corrupted_bits() == GEOM[2]  # counted as divergence

    def test_out_of_grid_rejected(self):
        fpga = configured()
        with pytest.raises(FpgaError):
            fpga.configure_region(7, 7, np.zeros((2, 2, GEOM[2]), dtype=np.uint8))

    def test_bad_shape_rejected(self):
        fpga = configured()
        with pytest.raises(FpgaError):
            fpga.configure_region(0, 0, np.zeros((2, 2, 7), dtype=np.uint8))

    def test_unsupported_device_rejected(self):
        """§4.4: 'major FPGAs are not partially configurable'."""
        fpga = configured(supports_partial=False)
        with pytest.raises(FpgaError):
            fpga.configure_region(0, 0, np.zeros((1, 1, GEOM[2]), dtype=np.uint8))

    def test_region_load_time_scales_with_area(self):
        fpga = configured()
        t_small = fpga.region_load_seconds(2, 2)
        t_large = fpga.region_load_seconds(8, 8)
        assert np.isclose(t_large, 16 * t_small)


class TestEquipmentRegionSwap:
    def _equipment(self, **kw):
        registry = default_registry()
        fpga = Fpga(rows=GEOM[0], cols=GEOM[1], bits_per_clb=GEOM[2], **kw)
        eq = ReconfigurableEquipment("demod0", fpga, registry, "modem")
        eq.load("modem.cdma")
        return eq

    def test_hot_swap_without_power_cycle(self):
        eq = self._equipment()
        t = eq.load_region("modem.tdma", 0, 0, 4, 8)  # swap the sync half
        assert eq.fpga.power is PowerState.ON
        assert eq.loaded_design == "modem.tdma"
        assert eq.operational
        assert t > 0

    def test_region_swap_faster_than_full_reload(self):
        eq = self._equipment()
        t_region = eq.load_region("modem.tdma", 0, 0, 4, 8)
        full = eq.fpga.config_load_seconds(
            eq.registry.get("modem.cdma").bitstream_for(*GEOM)
        )
        assert t_region < full

    def test_behaviour_swapped(self):
        from repro.dsp.tdma import TdmaModem

        eq = self._equipment()
        eq.load_region("modem.tdma")
        assert isinstance(eq.behaviour(), TdmaModem)

    def test_requires_loaded_design(self):
        registry = default_registry()
        fpga = Fpga(rows=GEOM[0], cols=GEOM[1], bits_per_clb=GEOM[2])
        eq = ReconfigurableEquipment("demod0", fpga, registry, "modem")
        with pytest.raises(EquipmentError):
            eq.load_region("modem.tdma")

    def test_kind_check_still_applies(self):
        eq = self._equipment()
        with pytest.raises(EquipmentError):
            eq.load_region("decod.turbo")

    def test_global_only_device_refuses(self):
        eq = self._equipment(supports_partial=False)
        with pytest.raises(EquipmentError):
            eq.load_region("modem.tdma")
