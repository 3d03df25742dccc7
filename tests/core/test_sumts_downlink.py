"""Tests for the S-UMTS sizing module and the payload Tx chain."""

import numpy as np
import pytest

from repro.core import PayloadConfig, RegenerativePayload
from repro.core.sumts import (
    CHIP_RATE_HZ,
    cdma_user_rate,
    check_mode_compatibility,
    sf_for_user_rate,
    tdma_link_rate,
)

SMALL = dict(fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32)


class TestSumtsSizing:
    def test_paper_chip_rate(self):
        assert CHIP_RATE_HZ == 2.048e6

    def test_144k_and_384k_reachable(self):
        """The paper's CDMA rates are reachable at sensible SFs."""
        for target in (144e3, 384e3):
            sf = sf_for_user_rate(target)
            assert sf >= 2
            assert cdma_user_rate(sf) >= target

    def test_cdma_ceiling_below_2mbps(self):
        """Why the waveform change is needed: CDMA can't reach 2 Mbps."""
        best = cdma_user_rate(1, bits_per_symbol=2, code_rate=1.0 / 3.0)
        assert best < 2e6

    def test_tdma_reaches_2mbps_goal(self):
        """'the goal for improved links is a 2 Mbps data rate'."""
        assert tdma_link_rate() >= 2e6

    def test_rate_monotone_in_sf(self):
        rates = [cdma_user_rate(sf) for sf in (2, 4, 8, 16, 32)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_mode_compatibility(self):
        """'working frequencies of both modes are then fully compatible'."""
        compat = check_mode_compatibility()
        assert compat.compatible
        assert compat.cdma_sample_rate == compat.tdma_sample_rate

    def test_unreachable_rate_raises(self):
        with pytest.raises(ValueError):
            sf_for_user_rate(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            cdma_user_rate(3)  # not a power of two
        with pytest.raises(ValueError):
            cdma_user_rate(4, code_rate=0.0)
        with pytest.raises(ValueError):
            tdma_link_rate(burst_efficiency=0.0)


class TestDownlinkTx:
    def _payload(self):
        pl = RegenerativePayload(PayloadConfig(num_carriers=2, **SMALL))
        pl.boot()
        return pl

    def test_downlink_produces_samples(self):
        pl = self._payload()
        pl.route_packets([b"\x00packet-a", b"\x00packet-b"])
        out = pl.build_downlink(0)
        assert out["bursts"] == 2
        assert len(out["samples"]) > 0
        assert np.iscomplexobj(out["samples"])

    def test_empty_port_gives_empty_downlink(self):
        pl = self._payload()
        out = pl.build_downlink(1)
        assert out["bursts"] == 0
        assert len(out["samples"]) == 0

    def test_downlink_is_demodulable(self):
        """Regeneration closes the loop: the downlink burst decodes."""
        pl = self._payload()
        payload_bytes = b"\x00" + bytes(range(24))
        pl.route_packets([payload_bytes])
        out = pl.build_downlink(0)
        # demodulate with the same personality
        modem = pl.demods[0].behaviour()
        rx = modem.receive(out["samples"][: modem.num_tx_samples()])
        chain = pl.decoder.behaviour()
        coded_len = min(len(rx["bits"]), chain.physical_bits)
        llr = (1.0 - 2.0 * rx["bits"][:coded_len].astype(float)) * 4.0
        if coded_len < chain.physical_bits:
            llr = np.concatenate([llr, np.zeros(chain.physical_bits - coded_len)])
        decoded = chain.decode(llr)
        sent_bits = np.unpackbits(np.frombuffer(payload_bytes[1:], dtype=np.uint8))
        got = decoded["bits"][: len(sent_bits)]
        assert np.mean(got != sent_bits) < 0.05

    def test_one_batch_equals_per_packet_bursts(self):
        """Three packets: the batched downlink is the DAC over each
        packet's own ``transmit`` burst, concatenated in order."""
        pl = self._payload()
        packets = [b"\x00" + bytes([i]) * (5 + 7 * i) for i in range(3)]
        pl.route_packets(packets)
        out = pl.build_downlink(0)
        chain = pl.decoder.behaviour()
        modem = pl.demods[0].behaviour()
        bursts = []
        for packet in packets:
            bits = np.unpackbits(np.frombuffer(packet[1:], dtype=np.uint8))
            block = np.zeros(chain.transport_block, dtype=np.uint8)
            block[: len(bits)] = bits[: chain.transport_block]
            bursts.append(modem.transmit(chain.encode(block)[: modem.bits_per_burst]))
        assert out["bursts"] == 3
        assert out["packets"] == [p[1:] for p in packets]
        np.testing.assert_array_equal(
            out["samples"], pl.dac.convert(np.concatenate(bursts))
        )

    def test_requires_tdma_tx_personality(self):
        pl = self._payload()
        pl.demods[0].load("modem.cdma")
        pl.route_packets([b"\x00data"])
        with pytest.raises(ValueError):
            pl.build_downlink(0)

    def test_dac_quantization_applied(self):
        pl = self._payload()
        pl.route_packets([b"\x00data"])
        out = pl.build_downlink(0)
        # DAC grid: all sample components on the quantizer lattice
        step = 2.0 / (1 << pl.config.dac_bits)
        re = out["samples"].real / step - 0.5
        assert np.allclose(re, np.round(re), atol=1e-9)
