"""Tests for the regenerative payload (Fig. 2) and the OBC (Fig. 1)."""

import numpy as np
import pytest

from repro.core import (
    OnBoardController,
    PayloadConfig,
    Platform,
    RegenerativePayload,
    Telecommand,
)
from repro.core.payload import PacketSwitch
from repro.sim import RngRegistry

SMALL = dict(fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32)


def booted_payload(num_carriers=2, **kw):
    pl = RegenerativePayload(PayloadConfig(num_carriers=num_carriers, **SMALL, **kw))
    pl.boot()
    return pl


class TestPacketSwitch:
    def test_routes_by_first_byte(self):
        sw = PacketSwitch(num_ports=4)
        assert sw.route(b"\x02payload") == 2
        assert sw.drain(2) == [b"payload"]

    def test_unknown_port_dropped(self):
        sw = PacketSwitch(num_ports=2)
        assert sw.route(b"\x07data") is None
        assert sw.dropped == 1

    def test_empty_packet_dropped(self):
        sw = PacketSwitch()
        assert sw.route(b"") is None

    def test_counters(self):
        sw = PacketSwitch(num_ports=2)
        sw.route(b"\x00a")
        sw.route(b"\x01b")
        sw.route(b"\x09c")
        assert sw.routed == 2 and sw.dropped == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSwitch(0)


class TestPayloadChain:
    def test_boot_makes_operational(self):
        pl = booted_payload()
        assert pl.operational
        assert all(eq.loaded_design == "modem.tdma" for eq in pl.demods)
        assert pl.decoder.loaded_design == "decod.conv"

    def test_uplink_roundtrip_all_carriers(self):
        """Fig. 2 end-to-end: 2-carrier multiplex -> per-carrier bits."""
        reg = RngRegistry(1)
        pl = booted_payload(num_carriers=2)
        bits = [
            reg.stream(f"c{k}").integers(
                0, 2, pl.demods[k].behaviour().bits_per_burst
            ).astype(np.uint8)
            for k in range(2)
        ]
        out = pl.process_uplink(pl.build_uplink(bits))
        for k in range(2):
            assert np.mean(out["bits"][k] != bits[k]) < 1e-3, f"carrier {k}"

    def test_six_carrier_paper_configuration(self):
        """The paper's 6-carrier MF-TDMA sizing."""
        reg = RngRegistry(2)
        pl = booted_payload(num_carriers=6)
        bits = [
            reg.stream(f"c{k}").integers(
                0, 2, pl.demods[k].behaviour().bits_per_burst
            ).astype(np.uint8)
            for k in range(6)
        ]
        out = pl.process_uplink(pl.build_uplink(bits))
        total_err = sum(
            np.count_nonzero(out["bits"][k] != bits[k]) for k in range(6)
        )
        assert total_err == 0

    def test_decoder_personality_used(self):
        pl = booted_payload()
        chain = pl.decoder.behaviour()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, chain.transport_block).astype(np.uint8)
        llr = (1.0 - 2.0 * chain.encode(data)) * 4.0
        out = pl.decode_block(llr)
        np.testing.assert_array_equal(out["bits"], data)
        assert out["crc_ok"]

    def test_single_carrier_no_channelizer(self):
        reg = RngRegistry(3)
        pl = booted_payload(num_carriers=1)
        bits = [
            reg.stream("c0").integers(
                0, 2, pl.demods[0].behaviour().bits_per_burst
            ).astype(np.uint8)
        ]
        out = pl.process_uplink(pl.build_uplink(bits))
        assert np.mean(out["bits"][0] != bits[0]) == 0

    def test_carrier_count_validation(self):
        with pytest.raises(ValueError):
            PayloadConfig(num_carriers=0)

    @pytest.mark.parametrize("length", [0, 5])
    def test_block_shorter_than_carrier_count_rejected(self, length):
        """A block shorter than one DEMUX frame names the minimum length
        instead of crashing inside the channelizer."""
        pl = booted_payload(num_carriers=8)
        with pytest.raises(ValueError, match="8-sample minimum"):
            pl.process_uplink(np.zeros(length, dtype=np.complex128))

    def test_wrong_bits_list_length(self):
        pl = booted_payload(num_carriers=2)
        with pytest.raises(ValueError):
            pl.build_uplink([np.zeros(8, dtype=np.uint8)])

    def test_route_packets(self):
        pl = booted_payload()
        out = pl.route_packets([b"\x00aa", b"\x01bb", b"\xffzz"])
        assert out["routed"] == 2
        assert out["dropped"] == 1


class TestMixedFaultFrame:
    """One dead demod + one sync-lost carrier, healthy neighbours."""

    CARRIERS, DEAD, LOST = 4, 1, 2

    def _payload(self):
        from repro.core.registry import default_registry
        from repro.dsp.tdma import BurstFormat

        registry = default_registry(
            tdma_burst=BurstFormat(preamble=16, uw=16, payload=96),
            transport_block=40,
        )
        pl = RegenerativePayload(
            PayloadConfig(num_carriers=self.CARRIERS, channelizer_taps=8),
            registry=registry,
        )
        pl.boot()
        return pl

    def _uplink(self, pl):
        """A clean frame of real coded transport blocks on every carrier."""
        rng = RngRegistry(7).stream("mixed-fault")
        chain = pl.decoder.behaviour()
        modem = pl.demods[0].behaviour()
        bits = []
        for _ in range(self.CARRIERS):
            block = rng.integers(0, 2, chain.transport_block).astype(np.uint8)
            bits.append(chain.encode(block)[: modem.bits_per_burst])
        wide = pl.build_uplink(bits)
        return wide + 0.02 * (
            rng.standard_normal(len(wide)) + 1j * rng.standard_normal(len(wide))
        )

    def test_faults_stay_in_their_lanes(self, monkeypatch):
        from repro.dsp.tdma import BurstSyncError, TdmaModem

        pl = self._payload()
        wide = self._uplink(pl)  # built while every carrier still works
        # dead equipment: powered off with no design -> EquipmentError
        pl.demods[self.DEAD].unload()
        # sync loss at the receive_batch row seam: the live carriers of
        # one personality are stacked in carrier order, so the lost
        # carrier's row comes back as its own BurstSyncError
        live = [k for k in range(self.CARRIERS) if k != self.DEAD]
        receive_batch = TdmaModem.receive_batch

        def lose_row(modem, samples, num_bits=None):
            rows = receive_batch(modem, samples, num_bits)
            assert len(rows) == len(live)
            rows[live.index(self.LOST)] = BurstSyncError("unique word not found")
            return rows

        monkeypatch.setattr(TdmaModem, "receive_batch", lose_row)
        out = pl.process_uplink(wide, decode=True)
        diags, decoded = out["diagnostics"], out["decoded"]
        assert "equipment_failed" in diags[self.DEAD]
        assert "sync_failed" in diags[self.LOST]
        for k in (self.DEAD, self.LOST):
            assert not np.any(out["bits"][k])
            assert decoded[k] is None
        # the faults never spilled into the healthy lanes
        for k in (0, 3):
            assert "sync_failed" not in diags[k]
            assert "equipment_failed" not in diags[k]
            assert decoded[k] is not None and decoded[k]["crc_ok"]


def _assert_same_value(got, ref, where):
    """Float-identical comparison of one receive-result value."""
    if hasattr(ref, "__dataclass_fields__"):
        for name in ref.__dataclass_fields__:
            _assert_same_value(
                getattr(got, name), getattr(ref, name), f"{where}.{name}"
            )
    elif isinstance(ref, dict):
        assert sorted(got) == sorted(ref), where
        for key in ref:
            _assert_same_value(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, np.ndarray):
        np.testing.assert_array_equal(got, ref, err_msg=where)
    else:
        assert got == ref, where


class TestMixedPersonalityFrame:
    """A CDMA carrier next to TDMA carriers in one uplink frame."""

    @pytest.mark.parametrize("num_carriers", [1, 2, 3])
    def test_every_carrier_matches_its_own_scalar_receive(self, num_carriers):
        reg = RngRegistry(11)
        pl = booted_payload(num_carriers=num_carriers)
        pl.demods[0].load("modem.cdma")
        modems = [eq.behaviour() for eq in pl.demods]
        sizes = [128] + [m.bits_per_burst for m in modems[1:]]
        bits = [
            reg.stream(f"c{k}").integers(0, 2, n).astype(np.uint8)
            for k, n in enumerate(sizes)
        ]
        wide = pl.build_uplink(bits)
        out = pl.process_uplink(wide, decode=True)
        channels = pl.channelize(wide)
        assert len(out["decoded"]) == num_carriers
        for k, modem in enumerate(modems):
            np.testing.assert_array_equal(out["bits"][k], bits[k])
            scalar = modem.receive(channels[k], len(bits[k]))
            np.testing.assert_array_equal(out["bits"][k], scalar["bits"])
            ref = {key: scalar[key] for key in scalar if key != "bits"}
            _assert_same_value(out["diagnostics"][k], ref, f"carrier {k}")

    def test_non_finite_cdma_carrier_fails_sync_alone(self, monkeypatch):
        """A CDMA carrier with a NaN sample reports ``sync_failed`` and
        delivers silence; the other CDMA carrier of its group decodes."""
        reg = RngRegistry(12)
        pl = booted_payload(num_carriers=2)
        for eq in pl.demods:
            eq.load("modem.cdma")
        bits = [reg.stream(f"c{k}").integers(0, 2, 128).astype(np.uint8) for k in range(2)]
        wide = pl.build_uplink(bits)
        channelize = pl.channelize

        def poison(wideband, beam=0):
            channels = channelize(wideband, beam).copy()
            channels[1, 50] = np.nan
            return channels

        monkeypatch.setattr(pl, "channelize", poison)
        out = pl.process_uplink(wide)
        assert "non-finite" in out["diagnostics"][1]["sync_failed"]
        assert not np.any(out["bits"][1])
        assert "sync_failed" not in out["diagnostics"][0]
        np.testing.assert_array_equal(out["bits"][0], bits[0])


class TestTransmitCarriers:
    def test_groups_match_per_carrier_transmit(self):
        """Mixed personalities and bit counts, bursts in carrier order."""
        from repro.core.payload import transmit_carriers
        from repro.dsp.cdma import CdmaModem
        from repro.dsp.tdma import TdmaModem

        tdma, cdma = TdmaModem(), CdmaModem()
        carriers = [
            ("modem.cdma", cdma),
            ("modem.tdma", tdma),
            ("modem.cdma", cdma),
            ("modem.tdma", tdma),
            ("modem.cdma", cdma),
        ]
        rng = np.random.default_rng(5)
        bits = [
            rng.integers(0, 2, n).astype(np.uint8)
            for n in (128, tdma.bits_per_burst, 64, 40, 128)
        ]
        bursts = transmit_carriers(carriers, bits)
        assert len(bursts) == len(carriers)
        for (_, modem), b, burst in zip(carriers, bits, bursts):
            np.testing.assert_array_equal(burst, modem.transmit(b))
        with pytest.raises(ValueError):
            transmit_carriers(carriers, bits[:2])


class TestReturnLinkFrontDoor:
    """process_return_link: the payload's multi-user CDMA entry point."""

    def _cdma_payload(self, num_carriers=1, carrier=0):
        pl = booted_payload(num_carriers=num_carriers)
        pl.demods[carrier].load("modem.cdma")
        return pl

    def _composite(self, pl, num_users, num_bits, seed=31, carrier=0):
        from repro.dsp.cdma import CdmaReturnBank

        reg = RngRegistry(seed)
        base = pl.demods[carrier].behaviour().config
        bank = CdmaReturnBank.for_users(num_users, base)
        sent = [
            reg.stream(f"u{u}").integers(0, 2, num_bits).astype(np.uint8)
            for u in range(num_users)
        ]
        comp = bank.transmit(sent)
        noise = reg.stream("n")
        comp = comp + 0.03 * (
            noise.standard_normal(len(comp))
            + 1j * noise.standard_normal(len(comp))
        )
        return bank, sent, comp

    def test_demodulates_every_user(self):
        pl = self._cdma_payload()
        bank, sent, comp = self._composite(pl, num_users=2, num_bits=64)
        out = pl.process_return_link(comp, num_users=2, num_bits=64)
        assert len(out["bits"]) == 2 and len(out["diagnostics"]) == 2
        for u in range(2):
            np.testing.assert_array_equal(out["bits"][u], sent[u])
            # identical to the scalar per-user path on the same samples
            scalar = bank.modems[u].receive(comp, 64)
            np.testing.assert_array_equal(out["bits"][u], scalar["bits"])
            diag = out["diagnostics"][u]
            assert diag["phase"] == scalar["phase"]
            assert diag["acq_metric"] == scalar["acq_metric"]
            assert "bits" not in diag

    def test_health_bank_sees_per_user_diagnostics(self):
        class Sink:
            def __init__(self):
                self.seen = []

            def observe_burst(self, k, diag):
                self.seen.append((k, diag))

        pl = self._cdma_payload()
        _, _, comp = self._composite(pl, num_users=2, num_bits=32)
        sink = Sink()
        pl.attach_health(sink)
        out = pl.process_return_link(comp, num_users=2, num_bits=32)
        assert [k for k, _ in sink.seen] == [0, 0]
        for (_, diag), ref in zip(sink.seen, out["diagnostics"]):
            assert diag is ref
            assert "carrier_lock" in diag and "acq_metric" in diag

    def test_health_booked_on_the_receiving_carrier(self):
        """Three users on carrier 1 of a two-carrier payload all feed
        carrier 1's monitor; carrier 0's monitor sees nothing."""
        from repro.robustness.fdir import HealthMonitorBank

        pl = self._cdma_payload(num_carriers=2, carrier=1)
        _, _, comp = self._composite(pl, num_users=3, num_bits=32, carrier=1)
        health = HealthMonitorBank(2)
        pl.attach_health(health)
        out = pl.process_return_link(comp, num_users=3, num_bits=32, carrier=1)
        assert len(out["diagnostics"]) == 3
        assert health.monitor(1).bursts == 3
        assert health.monitor(0).bursts == 0

    def test_zero_bit_composite(self):
        """Pilot-only bursts: empty bits, None lock and SNR, and the
        health monitor books each user without tripping."""
        from repro.robustness.fdir import HealthMonitorBank

        pl = self._cdma_payload()
        _, _, comp = self._composite(pl, num_users=2, num_bits=0)
        health = HealthMonitorBank(1)
        pl.attach_health(health)
        out = pl.process_return_link(comp, num_users=2, num_bits=0)
        for u in range(2):
            assert out["bits"][u].shape == (0,)
            diag = out["diagnostics"][u]
            assert diag["carrier_lock"] is None and diag["snr_db"] is None
        assert health.monitor(0).bursts == 2
        assert not health.monitor(0).tripped

    def test_repeated_calls_build_no_bank(self):
        from repro.caching import design_cache_stats

        pl = self._cdma_payload()
        _, _, comp = self._composite(pl, num_users=2, num_bits=32)
        pl.process_return_link(comp, num_users=2, num_bits=32)
        before = design_cache_stats()["cdma.return_bank"]
        for _ in range(3):
            pl.process_return_link(comp, num_users=2, num_bits=32)
        after = design_cache_stats()["cdma.return_bank"]
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 3

    def test_tdma_personality_rejected(self):
        pl = booted_payload(num_carriers=1)  # boots modem.tdma
        with pytest.raises(TypeError, match="CDMA personality"):
            pl.process_return_link(np.zeros(4096, dtype=complex), num_users=2)

    def test_equipment_fault_contained(self):
        pl = self._cdma_payload()
        _, _, comp = self._composite(pl, num_users=2, num_bits=32)
        pl.demods[0].fpga.power_off()
        out = pl.process_return_link(comp, num_users=2, num_bits=32)
        for u in range(2):
            assert not out["bits"][u].any()
            assert "equipment_failed" in out["diagnostics"][u]

    def test_carrier_out_of_range(self):
        pl = self._cdma_payload()
        with pytest.raises(ValueError):
            pl.process_return_link(np.zeros(64), num_users=1, carrier=5)


class TestObcAndPlatform:
    def test_status_telecommand(self):
        pl = booted_payload()
        platform = Platform(pl)
        tm = platform.handle_telecommand(Telecommand(1, "status"))
        assert tm.success
        assert tm.payload["demod0"]["design"] == "modem.tdma"
        assert platform.tc_count == 1 and platform.tm_count == 1

    def test_reconfigure_telecommand(self):
        pl = booted_payload()
        # library must hold the image first (the NCC normally uploads it)
        bs = pl.registry.get("modem.cdma").bitstream_for(8, 8, 32)
        pl.obc.library.store(bs)
        tm = pl.obc.execute(
            Telecommand(
                2, "reconfigure", {"equipment": "demod0", "function": "modem.cdma"}
            )
        )
        assert tm.success
        assert pl.demods[0].loaded_design == "modem.cdma"
        assert tm.payload["crc"] == bs.crc32()

    def test_validate_telecommand(self):
        pl = booted_payload()
        bs = pl.registry.get("modem.cdma").bitstream_for(8, 8, 32)
        pl.obc.library.store(bs)
        pl.obc.execute(
            Telecommand(3, "reconfigure", {"equipment": "demod0", "function": "modem.cdma"})
        )
        tm = pl.obc.execute(Telecommand(4, "validate", {"equipment": "demod0"}))
        assert tm.success

    def test_validate_detects_corruption(self):
        pl = booted_payload()
        bs = pl.registry.get("modem.cdma").bitstream_for(8, 8, 32)
        pl.obc.library.store(bs)
        pl.obc.execute(
            Telecommand(5, "reconfigure", {"equipment": "demod0", "function": "modem.cdma"})
        )
        pl.demods[0].fpga.upset_bits(np.array([1, 2, 3]))
        tm = pl.obc.execute(Telecommand(6, "validate", {"equipment": "demod0"}))
        assert not tm.success

    def test_unknown_action_reports_error(self):
        pl = booted_payload()
        tm = pl.obc.execute(Telecommand(7, "self-destruct"))
        assert not tm.success
        assert "unknown action" in tm.payload["error"]

    def test_unknown_equipment_reports_error(self):
        pl = booted_payload()
        tm = pl.obc.execute(
            Telecommand(8, "reconfigure", {"equipment": "nope", "function": "modem.tdma"})
        )
        assert not tm.success

    def test_store_and_evict(self):
        pl = booted_payload()
        bs = pl.registry.get("modem.cdma").bitstream_for(8, 8, 32)
        tm = pl.obc.execute(
            Telecommand(
                9, "store", {"function": "modem.cdma", "version": 1, "data": bs.to_bytes()}
            )
        )
        assert tm.success
        assert ("modem.cdma", 1) in pl.obc.library.catalogue()
        tm = pl.obc.execute(
            Telecommand(10, "evict", {"function": "modem.cdma", "version": 1})
        )
        assert tm.success
        assert ("modem.cdma", 1) not in pl.obc.library.catalogue()

    def test_duplicate_equipment_rejected(self):
        pl = booted_payload()
        with pytest.raises(ValueError):
            pl.obc.register_equipment(pl.demods[0])

    def test_tm_log_accumulates(self):
        pl = booted_payload()
        pl.obc.execute(Telecommand(1, "status"))
        pl.obc.execute(Telecommand(2, "status"))
        assert len(pl.obc.tm_log) == 2
