"""Tests for the cold-spare redundant pair."""

import numpy as np
import pytest

from repro.core import default_registry
from repro.core.equipment import EquipmentError, ReconfigurableEquipment
from repro.core.redundancy import RedundantEquipment
from repro.fpga import Fpga

GEOM = dict(rows=8, cols=8, bits_per_clb=32)


def make_pair(essential=1.0):
    reg = default_registry()
    primary = ReconfigurableEquipment(
        "demod0", Fpga(**GEOM, essential_fraction=essential, name="fpga-a"),
        reg, "modem",
    )
    spare = ReconfigurableEquipment(
        "demod0-spare", Fpga(**GEOM, essential_fraction=essential, name="fpga-b"),
        reg, "modem",
    )
    pair = RedundantEquipment(primary, spare)
    pair.load("modem.tdma")
    return pair


class TestRedundantEquipment:
    def test_spare_stays_cold(self):
        pair = make_pair()
        assert pair.primary.operational
        assert pair.spare.loaded_design is None
        assert pair.loaded_design == "modem.tdma"

    def test_failover_carries_personality(self):
        pair = make_pair()
        pair.primary.fpga.upset_bits(np.array([1]))  # essential upset
        assert not pair.operational
        pair.failover()
        assert pair.active is pair.spare
        assert pair.loaded_design == "modem.tdma"
        assert pair.operational
        assert pair.failovers == 1

    def test_failback_possible(self):
        pair = make_pair()
        pair.primary.fpga.upset_bits(np.array([1]))
        pair.failover()
        # the primary is recoverable (not marked failed): fail back
        pair.failover()
        assert pair.active is pair.primary
        assert pair.operational

    def test_both_units_failed_unrecoverable(self):
        pair = make_pair()
        pair.mark_unit_failed(pair.spare)
        pair.primary.fpga.upset_bits(np.array([1]))
        with pytest.raises(EquipmentError):
            pair.failover()

    def test_kind_mismatch_rejected(self):
        reg = default_registry()
        a = ReconfigurableEquipment("a", Fpga(**GEOM), reg, "modem")
        b = ReconfigurableEquipment("b", Fpga(**GEOM), reg, "decoder")
        with pytest.raises(ValueError):
            RedundantEquipment(a, b)

    def test_failover_without_design(self):
        reg = default_registry()
        a = ReconfigurableEquipment("a", Fpga(**GEOM), reg, "modem")
        b = ReconfigurableEquipment("b", Fpga(**GEOM), reg, "modem")
        pair = RedundantEquipment(a, b)
        with pytest.raises(EquipmentError):
            pair.failover()

    def test_behaviour_follows_active_unit(self):
        from repro.dsp.tdma import TdmaModem

        pair = make_pair()
        assert isinstance(pair.behaviour(), TdmaModem)
        pair.primary.fpga.upset_bits(np.array([1]))
        pair.failover()
        assert isinstance(pair.behaviour(), TdmaModem)


class TestTerminalDoubleFault:
    def test_terminal_flag_and_behaviour_error(self):
        pair = make_pair()
        pair.mark_unit_failed(pair.spare)
        pair.mark_unit_failed(pair.primary)
        with pytest.raises(EquipmentError):
            pair.failover()
        assert pair.terminal
        assert not pair.operational
        with pytest.raises(EquipmentError):
            pair.behaviour()  # never silently delegates to a dead unit

    def test_healthy_active_dead_spare_is_not_terminal(self):
        """A commanded failover onto a dead spare is refused, but the
        healthy active unit keeps the pair alive."""
        pair = make_pair()
        pair.mark_unit_failed(pair.spare)
        with pytest.raises(EquipmentError):
            pair.failover()
        assert not pair.terminal
        assert pair.operational
        pair.behaviour()  # still serves

    def test_record_design_carries_over_externally_loaded_personality(self):
        pair = make_pair()
        # an external service loaded a new personality on the unit itself
        pair.active.load("modem.tdma8")
        pair.record_design("modem.tdma8")
        pair.mark_unit_failed(pair.primary)
        pair.failover()
        assert pair.loaded_design == "modem.tdma8"
