"""Tests for the bitstream library, services and reconfiguration manager."""

import numpy as np
import pytest

from repro.core import (
    BitstreamLibrary,
    ReconfigurationManager,
    ReconfigurationService,
    ServiceError,
    ValidationService,
    default_registry,
)
from repro.core.equipment import ReconfigurableEquipment
from repro.fpga import Bitstream, Fpga
from repro.fpga.memory import OnboardMemory
from repro.sim import RngRegistry

GEOM = (8, 8, 32)


def setup_stack(essential_fraction=0.1):
    reg = default_registry()
    fpga = Fpga(
        rows=GEOM[0], cols=GEOM[1], bits_per_clb=GEOM[2],
        gate_capacity=1_200_000, essential_fraction=essential_fraction,
    )
    eq = ReconfigurableEquipment("demod0", fpga, reg, "modem")
    lib = BitstreamLibrary()
    for name in ("modem.cdma", "modem.tdma"):
        lib.store(reg.get(name).bitstream_for(*GEOM))
    return reg, eq, lib


class TestLibrary:
    def test_store_fetch_roundtrip(self):
        reg, eq, lib = setup_stack()
        bs = lib.fetch("modem.tdma")
        assert bs.function == "modem.tdma"

    def test_latest_version_fetched(self):
        reg, eq, lib = setup_stack()
        d = reg.get("modem.tdma")
        newer = Bitstream(
            "modem.tdma", *GEOM,
            frames=d.bitstream_for(*GEOM).frames, version=3,
        )
        lib.store(newer)
        assert lib.fetch("modem.tdma").version == 3
        assert lib.fetch("modem.tdma", version=1).version == 1

    def test_missing_design(self):
        _, _, lib = setup_stack()
        with pytest.raises(KeyError):
            lib.fetch("modem.ofdm")

    def test_evict(self):
        _, _, lib = setup_stack()
        lib.evict("modem.cdma", 1)
        with pytest.raises(KeyError):
            lib.fetch("modem.cdma")

    def test_catalogue(self):
        _, _, lib = setup_stack()
        assert ("modem.tdma", 1) in lib.catalogue()

    def test_corrupted_file_raises_on_fetch(self):
        """A double EDAC error must surface, not return garbage."""
        _, _, lib = setup_stack()
        name = "modem.tdma@1.bit"
        words = lib.memory._files[name].words
        words[10, 0] ^= 1
        words[10, 5] ^= 1  # double error in one byte: uncorrectable
        with pytest.raises(IOError):
            lib.fetch("modem.tdma")

    def test_three_bit_upset_raises_ioerror_on_fetch(self):
        """Syndrome 13-15 with odd parity is uncorrectable, not an IndexError."""
        _, _, lib = setup_stack()
        words = lib.memory._files["modem.tdma@1.bit"].words
        words[10, [0, 3, 7]] ^= 1  # 1-indexed positions 1, 4, 8
        with pytest.raises(IOError, match="at byte 10"):
            lib.fetch("modem.tdma")

    def test_memory_accounting(self):
        lib = BitstreamLibrary(OnboardMemory(capacity_bytes=100))
        with pytest.raises(MemoryError):
            lib.store_raw("big", 1, bytes(200))


class TestReconfigurationService:
    def test_executes_four_steps(self):
        reg, eq, lib = setup_stack()
        svc = ReconfigurationService(lib)
        bs, steps = svc.execute(eq, "modem.tdma")
        names = [s.step for s in steps]
        assert names == ["fetch-from-memory", "configure-fpga", "switch-on"]
        assert eq.operational
        assert eq.loaded_design == "modem.tdma"

    def test_unload_step_when_not_keeping(self):
        reg, eq, lib = setup_stack()
        svc = ReconfigurationService(lib, keep_in_library=False)
        _, steps = svc.execute(eq, "modem.tdma")
        assert steps[-1].step == "unload-from-memory"
        with pytest.raises(ServiceError):
            svc.execute(eq, "modem.tdma")  # evicted

    def test_durations_positive_and_rate_dependent(self):
        reg, eq, lib = setup_stack()
        slow = ReconfigurationService(lib, memory_read_rate=1e6)
        _, steps_slow = slow.execute(eq, "modem.tdma")
        fast = ReconfigurationService(lib, memory_read_rate=1e9)
        _, steps_fast = fast.execute(eq, "modem.cdma")
        assert steps_slow[0].duration > steps_fast[0].duration > 0

    def test_missing_file_is_service_error(self):
        reg, eq, lib = setup_stack()
        svc = ReconfigurationService(lib)
        with pytest.raises(ServiceError):
            svc.execute(eq, "modem.ofdm")


class TestValidationService:
    def test_pass_on_clean_load(self):
        reg, eq, lib = setup_stack()
        bs, _ = ReconfigurationService(lib).execute(eq, "modem.tdma")
        passed, steps = ValidationService().execute(eq, bs)
        assert passed
        assert "PASS" in steps[0].detail

    def test_fail_on_corruption(self):
        reg, eq, lib = setup_stack()
        bs, _ = ReconfigurationService(lib).execute(eq, "modem.tdma")
        eq.fpga.upset_bits(np.array([5]))
        passed, steps = ValidationService().execute(eq, bs)
        assert not passed
        assert "FAIL" in steps[0].detail

    def test_duration_scales_with_config_size(self):
        reg, eq, lib = setup_stack()
        bs, _ = ReconfigurationService(lib).execute(eq, "modem.tdma")
        svc = ValidationService(crc_check_rate=1e6)
        _, steps = svc.execute(eq, bs)
        assert np.isclose(steps[0].duration, eq.fpga.num_config_bits / 1e6)


class TestReconfigurationManager:
    def test_successful_sequence(self):
        reg, eq, lib = setup_stack()
        eq.load("modem.cdma")
        mgr = ReconfigurationManager(lib)
        report = mgr.execute(eq, "modem.tdma")
        assert report.success
        assert not report.rolled_back
        assert report.final_function == "modem.tdma"
        assert report.outage_seconds > 0
        assert report.crc_telemetry == lib.fetch("modem.tdma").crc32()

    def test_step_sequence_matches_paper(self):
        """§3.1: off -> load -> telemetry(CRC) -> on."""
        reg, eq, lib = setup_stack()
        eq.load("modem.cdma")
        mgr = ReconfigurationManager(lib)
        report = mgr.execute(eq, "modem.tdma")
        names = [s.step for s in report.steps]
        assert names == [
            "switch-off",
            "fetch-from-memory",
            "configure-fpga",
            "switch-on",
            "crc-auto-test",
        ]

    def test_rollback_on_corrupted_load(self):
        """'the system should be able to come back to the previous
        configuration in case of failure of the process'."""
        reg, eq, lib = setup_stack()
        eq.load("modem.cdma")
        mgr = ReconfigurationManager(lib)

        def corrupt(fpga):
            fpga.upset_bits(np.arange(10))

        report = mgr.execute(eq, "modem.tdma", corrupt_hook=corrupt)
        assert not report.success
        assert report.rolled_back
        assert report.final_function == "modem.cdma"
        assert eq.operational  # the old service is back

    def test_failure_without_previous_config(self):
        reg, eq, lib = setup_stack()
        mgr = ReconfigurationManager(lib)
        report = mgr.execute(eq, "modem.ofdm")  # unknown design
        assert not report.success
        assert not report.rolled_back
        assert report.final_function is None

    def test_history_recorded(self):
        reg, eq, lib = setup_stack()
        eq.load("modem.cdma")
        mgr = ReconfigurationManager(lib)
        mgr.execute(eq, "modem.tdma")
        mgr.execute(eq, "modem.cdma")
        assert len(mgr.history) == 2
        assert "OK" in mgr.history[0].summary()

    def test_outage_includes_config_and_validation(self):
        reg, eq, lib = setup_stack()
        eq.load("modem.cdma")
        mgr = ReconfigurationManager(lib)
        report = mgr.execute(eq, "modem.tdma")
        step_sum = sum(s.duration for s in report.steps)
        assert np.isclose(report.outage_seconds, step_sum)
