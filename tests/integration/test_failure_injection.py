"""Failure-injection integration tests: the unhappy paths of §3.

The paper requires the system to survive its own failure modes: bad
uploads must be caught by the file CRC, corrupted loads by the
validation service (with rollback), and memory upsets by EDAC.
"""

import numpy as np
import pytest

from repro.core import PayloadConfig, RegenerativePayload, Telecommand
from repro.ncc import NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.sim import Simulator

GEOM = (8, 8, 32)
SMALL = dict(fpga_rows=GEOM[0], fpga_cols=GEOM[1], fpga_bits_per_clb=GEOM[2])


def scenario():
    sim = Simulator()
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(sim, delay=0.25, rate_bps=1e6)
    link.attach(ground)
    link.attach(space)
    payload = RegenerativePayload(PayloadConfig(num_carriers=1, **SMALL))
    payload.boot(modem="modem.cdma")
    gw = SatelliteGateway(space, payload)
    ncc = NetworkControlCenter(ground, payload.registry, 2, GEOM)
    return sim, payload, gw, ncc


class TestCorruptedUpload:
    def test_corrupted_file_rejected_at_store(self):
        """A bit-flipped bitstream file fails its container CRC when the
        store TC tries to register it -- before it can reach an FPGA."""
        sim, payload, gw, ncc = scenario()
        design = payload.registry.get("modem.tdma")
        blob = bytearray(design.bitstream_for(*GEOM).to_bytes())
        blob[100] ^= 0xFF  # corruption in transit/storage
        results = {}

        def campaign(sim):
            yield from ncc.upload("modem.tdma@1.bit", bytes(blob), "ftp")
            reply = yield from ncc.send_telecommand(
                "store",
                {"file": "modem.tdma@1.bit", "function": "modem.tdma", "version": 1},
            )
            # store succeeds (raw bytes) but the reconfigure must fail at fetch
            reply2 = yield from ncc.send_telecommand(
                "reconfigure", {"equipment": "demod0", "function": "modem.tdma"}
            )
            results["store"] = reply
            results["reconf"] = reply2

        sim.process(campaign(sim))
        sim.run(until=600)
        assert not results["reconf"]["success"]
        # the payload still runs its previous personality... or is safely off
        assert payload.demods[0].loaded_design in ("modem.cdma", None)

    def test_missing_upload_reported(self):
        sim, payload, gw, ncc = scenario()
        results = {}

        def campaign(sim):
            reply = yield from ncc.send_telecommand(
                "store", {"file": "ghost.bit", "function": "x", "version": 1}
            )
            results["reply"] = reply

        sim.process(campaign(sim))
        sim.run(until=60)
        assert not results["reply"]["success"]
        assert "ghost.bit" in str(results["reply"]["payload"])


def _flip_one_bit_per_word(words, count):
    """Flip one bit in each of ``count`` words spread over the file."""
    rows = np.linspace(0, len(words) - 1, count).astype(np.int64)
    words[rows, np.arange(count) % words.shape[1]] ^= 1


class TestMemoryUpsets:
    def test_library_edac_corrects_singles(self):
        sim, payload, gw, ncc = scenario()
        lib = payload.obc.library
        bs = payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        name = lib.store(bs)
        # scattered single-bit upsets in on-board memory
        _flip_one_bit_per_word(lib.memory._files[name].words, 8)
        fetched = lib.fetch("modem.tdma")
        assert fetched.crc32() == bs.crc32()

    def test_scrub_then_fetch_after_heavy_upsets(self):
        sim, payload, gw, ncc = scenario()
        lib = payload.obc.library
        bs = payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        name = lib.store(bs)
        _flip_one_bit_per_word(lib.memory._files[name].words, 5)
        fixed = lib.memory.scrub()
        assert fixed >= 1
        assert lib.fetch("modem.tdma").crc32() == bs.crc32()


class TestEquipmentFaults:
    def test_reconfigure_unknown_function_keeps_service(self):
        sim, payload, gw, ncc = scenario()
        tm = payload.obc.execute(
            Telecommand(1, "reconfigure",
                        {"equipment": "demod0", "function": "modem.ofdm"})
        )
        assert not tm.success
        assert payload.demods[0].operational  # still serving CDMA

    def test_validate_after_inflight_seu(self):
        """An SEU between load and validate triggers the FAIL telemetry."""
        sim, payload, gw, ncc = scenario()
        bs = payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        payload.obc.library.store(bs)
        tm = payload.obc.execute(
            Telecommand(2, "reconfigure",
                        {"equipment": "demod0", "function": "modem.tdma"})
        )
        assert tm.success
        payload.demods[0].fpga.upset_bits(np.array([10, 20]))
        tm = payload.obc.execute(Telecommand(3, "validate", {"equipment": "demod0"}))
        assert not tm.success
