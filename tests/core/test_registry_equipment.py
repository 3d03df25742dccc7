"""Tests for the function registry and reconfigurable equipment."""

import numpy as np
import pytest

from repro.core import FunctionDesign, FunctionRegistry, default_registry
from repro.core.equipment import EquipmentError, ReconfigurableEquipment
from repro.dsp.cdma import CdmaModem
from repro.dsp.tdma import TdmaModem
from repro.fpga import Fpga


def small_fpga(**kw):
    kw.setdefault("rows", 8)
    kw.setdefault("cols", 8)
    kw.setdefault("bits_per_clb", 32)
    kw.setdefault("gate_capacity", 1_200_000)
    return Fpga(**kw)


class TestRegistry:
    def test_default_personalities(self):
        reg = default_registry()
        assert set(reg.names()) == {
            "modem.cdma",
            "modem.tdma",
            "modem.tdma8",
            "decod.none",
            "decod.conv",
            "decod.turbo",
        }

    def test_kinds(self):
        reg = default_registry()
        kinds = {name: reg.get(name).kind for name in reg.names()}
        assert {n for n, k in kinds.items() if k == "modem"} == {
            "modem.cdma", "modem.tdma", "modem.tdma8",
        }
        assert sum(k == "decoder" for k in kinds.values()) == 3

    def test_8psk_personality_higher_rate(self):
        """The upgrade personality carries 1.5x the bits per burst."""
        reg = default_registry()
        qpsk = reg.get("modem.tdma").factory()
        psk8 = reg.get("modem.tdma8").factory()
        assert psk8.bits_per_burst == qpsk.bits_per_burst * 3 // 2
        # and it still fits the MH1RT-class device
        assert reg.get("modem.tdma8").fits(1_200_000)

    def test_8psk_loopback(self):
        reg = default_registry()
        modem = reg.get("modem.tdma8").factory()
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, modem.bits_per_burst).astype(np.uint8)
        out = modem.receive(modem.transmit(bits))
        np.testing.assert_array_equal(out["bits"], bits)

    def test_factories_build_correct_types(self):
        reg = default_registry()
        assert isinstance(reg.get("modem.cdma").factory(), CdmaModem)
        assert isinstance(reg.get("modem.tdma").factory(), TdmaModem)

    def test_gate_budgets_fit_mh1rt(self):
        """The paper's point: both modem personalities fit 1.2M gates."""
        reg = default_registry()
        for name in ("modem.cdma", "modem.tdma"):
            assert reg.get(name).fits(1_200_000)

    def test_bitstream_deterministic(self):
        reg = default_registry()
        d = reg.get("modem.tdma")
        b1 = d.bitstream_for(8, 8, 32)
        b2 = d.bitstream_for(8, 8, 32)
        assert b1.crc32() == b2.crc32()
        np.testing.assert_array_equal(b1.frames, b2.frames)

    def test_bitstreams_differ_by_design(self):
        reg = default_registry()
        a = reg.get("modem.tdma").bitstream_for(8, 8, 32)
        b = reg.get("modem.cdma").bitstream_for(8, 8, 32)
        assert a.crc32() != b.crc32()

    def test_duplicate_name_rejected(self):
        reg = FunctionRegistry()
        d = FunctionDesign("x", "modem", 100.0, factory=lambda: None)
        reg.add(d)
        with pytest.raises(ValueError):
            reg.add(d)

    def test_unknown_design(self):
        with pytest.raises(KeyError):
            default_registry().get("modem.ofdm")

    def test_contains_len(self):
        reg = default_registry()
        assert "modem.tdma" in reg
        assert len(reg) == 6


class TestEquipment:
    def test_load_and_behaviour(self):
        reg = default_registry()
        eq = ReconfigurableEquipment("demod0", small_fpga(), reg, "modem")
        eq.load("modem.tdma")
        assert eq.operational
        assert isinstance(eq.behaviour(), TdmaModem)
        assert eq.fpga.loaded_function == "modem.tdma"

    def test_kind_mismatch_rejected(self):
        reg = default_registry()
        eq = ReconfigurableEquipment("demod0", small_fpga(), reg, "modem")
        with pytest.raises(EquipmentError):
            eq.load("decod.turbo")

    def test_gate_capacity_enforced(self):
        """A design must fit the device ('sufficient hardware capacity
        on the chip whatever the function', §4.4)."""
        reg = default_registry()
        tiny = small_fpga(gate_capacity=10_000)
        eq = ReconfigurableEquipment("demod0", tiny, reg, "modem")
        with pytest.raises(EquipmentError):
            eq.load("modem.cdma")

    def test_wrong_bitstream_function_rejected(self):
        reg = default_registry()
        eq = ReconfigurableEquipment("demod0", small_fpga(), reg, "modem")
        wrong = reg.get("modem.cdma").bitstream_for(8, 8, 32)
        with pytest.raises(EquipmentError):
            eq.load("modem.tdma", wrong)

    def test_unload_stops_service(self):
        reg = default_registry()
        eq = ReconfigurableEquipment("demod0", small_fpga(), reg, "modem")
        eq.load("modem.tdma")
        eq.unload()
        assert not eq.operational
        with pytest.raises(EquipmentError):
            eq.behaviour()

    def test_essential_seu_breaks_behaviour_access(self):
        reg = default_registry()
        fpga = small_fpga(essential_fraction=1.0)
        eq = ReconfigurableEquipment("demod0", fpga, reg, "modem")
        eq.load("modem.tdma")
        fpga.upset_bits(np.array([3]))
        assert not eq.operational
        with pytest.raises(EquipmentError):
            eq.behaviour()

    def test_repair_then_behaviour_restored(self):
        reg = default_registry()
        fpga = small_fpga(essential_fraction=1.0)
        eq = ReconfigurableEquipment("demod0", fpga, reg, "modem")
        eq.load("modem.tdma")
        fpga.upset_bits(np.array([3]))
        fpga.rewrite_all_from_golden()
        assert eq.operational

    def test_reload_swaps_personality(self):
        """The Fig. 3 swap at equipment level."""
        reg = default_registry()
        eq = ReconfigurableEquipment("demod0", small_fpga(), reg, "modem")
        eq.load("modem.cdma")
        assert isinstance(eq.behaviour(), CdmaModem)
        eq.load("modem.tdma")
        assert isinstance(eq.behaviour(), TdmaModem)

    def test_behaviour_without_load(self):
        reg = default_registry()
        eq = ReconfigurableEquipment("demod0", small_fpga(), reg, "modem")
        with pytest.raises(EquipmentError):
            eq.behaviour()
        with pytest.raises(EquipmentError):
            eq.refresh_behaviour()
