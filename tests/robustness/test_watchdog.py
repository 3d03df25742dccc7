"""Tests for the safe-mode watchdog state machine and its OBC wiring."""

import numpy as np
import pytest

from repro import obs
from repro.core import PayloadConfig, RegenerativePayload
from repro.core.obc import Telecommand
from repro.robustness import (
    DEGRADED,
    NOMINAL,
    SAFE_MODE,
    SafeModeWatchdog,
)

GEOM = (8, 8, 32)


def make_payload(threshold=2, store_golden=True):
    payload = RegenerativePayload(
        PayloadConfig(
            num_carriers=1,
            fpga_rows=GEOM[0],
            fpga_cols=GEOM[1],
            fpga_bits_per_clb=GEOM[2],
        )
    )
    payload.boot(modem="modem.cdma", decoder="decod.conv")
    golden = {"demod0": "modem.cdma", payload.decoder.name: "decod.conv"}
    wd = payload.obc.arm_watchdog(golden, threshold=threshold)
    if store_golden:
        for fn in set(golden.values()):
            payload.obc.library.store(
                payload.registry.get(fn).bitstream_for(*GEOM)
            )
    return payload, wd


class TestStateMachine:
    def test_threshold_validation(self):
        payload, _ = make_payload()
        with pytest.raises(ValueError):
            SafeModeWatchdog(payload.obc, {}, threshold=0)

    def test_nominal_degraded_safe_mode_progression(self):
        payload, wd = make_payload(threshold=3)
        assert wd.state == NOMINAL
        assert wd.record_failure("demod0") is None
        assert wd.state_of("demod0") == DEGRADED
        assert wd.state == DEGRADED
        assert wd.record_failure("demod0") is None
        info = wd.record_failure("demod0")  # third consecutive: trips
        assert info is not None and info["loaded"]
        assert wd.state_of("demod0") == SAFE_MODE
        assert wd.state == SAFE_MODE

    def test_success_resets_the_streak(self):
        payload, wd = make_payload(threshold=2)
        wd.record_failure("demod0")
        wd.record_success("demod0")  # streak broken
        assert wd.record_failure("demod0") is None  # back to 1, not 2
        assert wd.state_of("demod0") == DEGRADED

    def test_streaks_are_per_equipment(self):
        payload, wd = make_payload(threshold=2)
        wd.record_failure("demod0")
        assert wd.record_failure(payload.decoder.name) is None
        assert wd.state == DEGRADED  # neither unit crossed its threshold

    def test_validated_success_exits_safe_mode(self):
        payload, wd = make_payload(threshold=1)
        wd.record_failure("demod0")
        assert "demod0" in wd.safe_mode
        wd.record_success("demod0")
        assert "demod0" not in wd.safe_mode
        assert wd.state_of("demod0") == NOMINAL

    def test_status_summary(self):
        payload, wd = make_payload(threshold=2)
        wd.record_failure("demod0")
        st = wd.status()
        assert st["state"] == DEGRADED
        assert st["failures"] == {"demod0": 1}
        assert st["safe_mode"] == []
        assert st["threshold"] == 2


class TestGoldenImageRecovery:
    def test_golden_loaded_from_library(self):
        payload, wd = make_payload(threshold=1)
        eq = payload.demods[0]
        eq.unload()
        info = wd.record_failure("demod0")
        assert info["loaded"] and info["source"] == "library"
        assert eq.loaded_design == "modem.cdma"
        assert eq.operational

    def test_registry_render_fallback_when_library_copy_missing(self):
        payload, wd = make_payload(threshold=1, store_golden=False)
        eq = payload.demods[0]
        eq.unload()
        info = wd.record_failure("demod0")
        assert info["loaded"] and info["source"] == "registry"
        assert eq.operational

    def test_registry_render_fallback_when_library_copy_corrupted(self):
        payload, wd = make_payload(threshold=1)
        # corrupt the stored golden image in on-board memory (raw bytes
        # mutated under the container CRC -> fetch raises ValueError)
        mem = payload.obc.library.memory
        name = "modem.cdma@1.bit"
        raw = bytearray(mem.load(name))
        raw[len(raw) // 2] ^= 0xFF
        mem.delete(name)
        mem.store(name, bytes(raw))
        info = wd.record_failure("demod0")
        assert info["loaded"] and info["source"] == "registry"
        assert payload.demods[0].operational

    def test_no_golden_designated_is_reported(self):
        payload, wd = make_payload(threshold=1)
        wd.golden.pop("demod0")
        info = wd.record_failure("demod0")
        assert not info["loaded"]
        assert info["error"] == "no golden image designated"

    def test_probe_counters(self):
        with obs.session() as (reg, _):
            payload, wd = make_payload(threshold=1)
            wd.record_failure("demod0")
            wd.record_success("demod0")
            assert reg.value("core.watchdog.failures_observed") == 1
            assert reg.value("core.watchdog.safe_mode_entries") == 1
            assert reg.value("core.watchdog.golden_loads") == 1
            assert reg.value("core.watchdog.safe_mode_exits") == 1


class TestObcTelemetry:
    def test_reconfigure_telemetry_reports_watchdog_state(self):
        payload, wd = make_payload(threshold=2)
        payload.obc.library.store(
            payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        )
        rng = np.random.default_rng(0)

        def corrupt(fpga):
            fpga.upset_bits(rng.integers(0, fpga.num_config_bits, size=16))

        payload.obc.manager.default_corrupt_hook = corrupt
        tc = Telecommand(1, "reconfigure", {"equipment": "demod0", "function": "modem.tdma"})
        tm1 = payload.obc.execute(tc)
        assert not tm1.success
        assert tm1.payload["watchdog_state"] == DEGRADED
        assert tm1.payload["safe_mode"] is False
        tm2 = payload.obc.execute(
            Telecommand(2, "reconfigure", {"equipment": "demod0", "function": "modem.tdma"})
        )
        assert not tm2.success
        assert tm2.payload["safe_mode"] is True
        assert tm2.payload["watchdog_state"] == SAFE_MODE
        # the safe-mode entry re-loaded the golden image: telemetry
        # reports the personality actually on board now
        assert tm2.payload["final_function"] == "modem.cdma"
        assert payload.demods[0].operational

    def test_status_telemetry_includes_watchdog(self):
        payload, wd = make_payload()
        wd.record_failure("demod0")
        tm = payload.obc.execute(Telecommand(1, "status", {}))
        assert tm.success
        assert tm.payload["watchdog"]["state"] == DEGRADED

    def test_unarmed_obc_reports_no_safe_mode(self):
        payload = RegenerativePayload(
            PayloadConfig(
                num_carriers=1,
                fpga_rows=GEOM[0],
                fpga_cols=GEOM[1],
                fpga_bits_per_clb=GEOM[2],
            )
        )
        payload.boot(modem="modem.cdma")
        payload.obc.library.store(
            payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        )
        tm = payload.obc.execute(
            Telecommand(1, "reconfigure", {"equipment": "demod0", "function": "modem.tdma"})
        )
        assert tm.success
        assert tm.payload["safe_mode"] is False
        assert "watchdog" not in payload.obc.execute(Telecommand(2, "status", {})).payload
