"""The regenerative payload (Fig. 2) and the platform/payload split (Fig. 1).

Receive side: ADC -> half-band filtering -> DBFN (multi-element case) ->
DEMUX (polyphase channelizer) -> one reconfigurable demodulator per
carrier -> reconfigurable decoder -> baseband packet switch.  Transmit
side: re-modulation and DAC.  Every demodulator and the decoder are
:class:`repro.core.equipment.ReconfigurableEquipment` instances -- the
functions the paper's SDR concept targets.

Every modem personality -- TDMA, robust TDMA, CDMA -- is driven through
one waveform interface: ``bits_per_burst``, ``transmit_batch(bits)`` and
``receive_batch(samples, num_bits=None)``, whose scalar ``transmit`` /
``receive`` are one-row views.  The payload never asks which waveform a
carrier carries: carriers are grouped by loaded personality and each
group is one batched call.  :func:`transmit_carriers` is the matching
ground-side synthesis (used by :meth:`RegenerativePayload.build_uplink`
and the scenario runner), so tests and benchmarks can run the chain
end-to-end without an external signal source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dsp.adc import Adc, Dac
from ..dsp.beamforming import Dbfn
from ..dsp.cdma import CdmaModem, CdmaReturnBank
from ..dsp.demux import PolyphaseChannelizer, multiplex_carriers
from ..dsp.tdma import BurstSyncError, TdmaModem
from ..fpga.device import Fpga
from ..obs.probes import probe
from .equipment import EquipmentError, ReconfigurableEquipment
from .obc import OnBoardController, Telecommand, Telemetry
from .registry import FunctionRegistry, default_registry

__all__ = [
    "PayloadConfig",
    "RegenerativePayload",
    "Platform",
    "PacketSwitch",
    "transmit_carriers",
]


@dataclass(frozen=True)
class PayloadConfig:
    """Geometry and sizing of the regenerative payload.

    Defaults follow the paper: 6 carriers (the MF-TDMA complexity
    example), 8-bit ADCs, a 1.2 M-gate-class FPGA per equipment.
    """

    num_carriers: int = 6
    adc_bits: int = 8
    dac_bits: int = 12
    array_elements: int = 1  # 1 = single-feed (DBFN bypassed)
    beam_thetas: tuple = (0.0,)  # one beam per direction (radians)
    fpga_rows: int = 16
    fpga_cols: int = 16
    fpga_bits_per_clb: int = 64
    fpga_gate_capacity: int = 1_200_000
    channelizer_taps: int = 16

    def __post_init__(self) -> None:
        if self.num_carriers < 1:
            raise ValueError("need at least one carrier")
        if self.array_elements < 1:
            raise ValueError("need at least one antenna element")
        if len(self.beam_thetas) < 1:
            raise ValueError("need at least one beam")

    @property
    def beam_theta(self) -> float:
        """First beam direction (kept for the single-beam API)."""
        return self.beam_thetas[0]


class PacketSwitch:
    """Baseband packet switching (the regenerative payload's raison d'etre).

    Packets are byte strings whose first byte is the destination
    down-link port; the switch routes them into per-port queues and
    counts drops on unknown ports.

    Per-port queues are bounded (``queue_capacity`` packets): an
    on-board switch has finite buffer memory, and a downlink port that
    is not being drained must shed (``queue_dropped``) rather than
    grow until the payload runs out of RAM.
    """

    def __init__(self, num_ports: int = 4, queue_capacity: int = 1024) -> None:
        if num_ports < 1:
            raise ValueError("need at least one port")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.num_ports = num_ports
        self.queue_capacity = queue_capacity
        self.queues: List[List[bytes]] = [[] for _ in range(num_ports)]
        self.routed = 0
        self.dropped = 0
        self.queue_dropped = 0

    def backpressure(self, port: int) -> bool:
        """True when a down-link port's queue can accept no more."""
        return len(self.queues[port]) >= self.queue_capacity

    def route(self, packet: bytes) -> Optional[int]:
        """Route one packet; returns the port or None when dropped."""
        if not packet:
            self.dropped += 1
            return None
        port = packet[0] % 256
        if port >= self.num_ports:
            self.dropped += 1
            return None
        if len(self.queues[port]) >= self.queue_capacity:
            self.queue_dropped += 1
            return None
        self.queues[port].append(packet[1:])
        self.routed += 1
        return port

    def drain(self, port: int) -> List[bytes]:
        """Pop everything queued for a down-link port."""
        out = self.queues[port]
        self.queues[port] = []
        return out


class RegenerativePayload:
    """The Fig. 2 payload: per-carrier demodulators + decoder + switch."""

    def __init__(
        self,
        config: Optional[PayloadConfig] = None,
        registry: Optional[FunctionRegistry] = None,
        obc: Optional[OnBoardController] = None,
    ) -> None:
        self.config = config or PayloadConfig()
        self.registry = registry or default_registry()
        self.obc = obc or OnBoardController()
        cfg = self.config

        self.adc = Adc(bits=cfg.adc_bits)
        self.dac = Dac(bits=cfg.dac_bits)
        self.dbfn: Optional[Dbfn] = None
        if cfg.array_elements > 1:
            self.dbfn = Dbfn(cfg.array_elements)
            for theta in cfg.beam_thetas:
                self.dbfn.point_beam(theta)
        self.channelizer = (
            PolyphaseChannelizer(cfg.num_carriers, cfg.channelizer_taps)
            if cfg.num_carriers > 1
            else None
        )

        # one reconfigurable demodulator equipment per carrier
        self.demods: List[ReconfigurableEquipment] = []
        for k in range(cfg.num_carriers):
            fpga = Fpga(
                rows=cfg.fpga_rows,
                cols=cfg.fpga_cols,
                bits_per_clb=cfg.fpga_bits_per_clb,
                gate_capacity=cfg.fpga_gate_capacity,
                name=f"fpga-demod{k}",
            )
            eq = ReconfigurableEquipment(
                f"demod{k}", fpga, self.registry, expected_kind="modem"
            )
            self.demods.append(eq)
            self.obc.register_equipment(eq)
        # one decoder equipment (shared across carriers, as in Fig. 2's
        # decod bank; a per-carrier bank is a config away)
        dec_fpga = Fpga(
            rows=cfg.fpga_rows,
            cols=cfg.fpga_cols,
            bits_per_clb=cfg.fpga_bits_per_clb,
            gate_capacity=cfg.fpga_gate_capacity,
            name="fpga-decod",
        )
        self.decoder = ReconfigurableEquipment(
            "decod0", dec_fpga, self.registry, expected_kind="decoder"
        )
        self.obc.register_equipment(self.decoder)
        self.switch = PacketSwitch()
        #: optional traffic-plane health sink (duck-typed: anything with
        #: ``observe_burst(carrier, diag)`` / ``observe_decode(carrier,
        #: ok)``, e.g. :class:`repro.robustness.fdir.HealthMonitorBank`)
        self.health = None

    def attach_health(self, bank) -> None:
        """Attach a per-carrier health monitor bank to the live chain.

        Every subsequent :meth:`process_uplink` feeds each carrier's
        receive diagnostics to ``bank.observe_burst`` and, with
        ``decode=True``, each decoded carrier's CRC outcome to
        ``bank.observe_decode`` -- the FDIR detection path.
        """
        self.health = bank

    # -- bring-up ---------------------------------------------------------
    def boot(self, modem: str = "modem.tdma", decoder: str = "decod.conv") -> None:
        """Load initial personalities into every equipment."""
        for eq in self.demods:
            eq.load(modem)
        self.decoder.load(decoder)

    @property
    def operational(self) -> bool:
        """All equipments carrying a live function."""
        return all(eq.operational for eq in self.demods) and self.decoder.operational

    def personalities(self) -> Dict[str, Optional[str]]:
        """Currently loaded design per equipment (demods + decoder).

        A stable, JSON-able summary of what the payload *is* right now
        -- the scenario conformance engine freezes this in its golden
        records so a reconfiguration plan that silently stopped landing
        shows up as a readable diff, not just a trace-hash change.
        """
        out: Dict[str, Optional[str]] = {
            eq.name: eq.loaded_design for eq in self.demods
        }
        out[self.decoder.name] = self.decoder.loaded_design
        return out

    # -- synthesis (test/bench signal source) --------------------------------
    def build_uplink(self, bits_per_carrier: List[np.ndarray]) -> np.ndarray:
        """Build the MF multiplex carrying one burst per carrier.

        Each carrier's burst is produced by that carrier's *current*
        modem personality through :func:`transmit_carriers`, so the
        synthesized signal always matches what the demodulators expect.
        """
        cfg = self.config
        if len(bits_per_carrier) != cfg.num_carriers:
            raise ValueError(f"need bits for {cfg.num_carriers} carriers")
        streams = transmit_carriers(
            [(eq.loaded_design, eq.behaviour()) for eq in self.demods],
            bits_per_carrier,
        )
        n = max(len(s) for s in streams)
        bb = np.zeros((cfg.num_carriers, n), dtype=np.complex128)
        for k, s in enumerate(streams):
            bb[k, : len(s)] = s
        if cfg.num_carriers == 1:
            return bb[0]
        return multiplex_carriers(bb, cfg.num_carriers)

    # -- the receive chain -----------------------------------------------------
    def channelize(self, wideband: np.ndarray, beam: int = 0) -> np.ndarray:
        """ADC, beam selection and DEMUX: one baseband row per carrier.

        The front of the Fig. 2 Rx chain, ahead of the demodulators.
        With a multi-element front end, ``beam`` selects which DBFN
        output feeds the carrier DEMUX.  Raises ``ValueError`` for a
        multi-carrier block shorter than one channelizer frame
        (``num_carriers`` samples).
        """
        cfg = self.config
        x = self.adc.convert(np.asarray(wideband))
        if self.dbfn is not None:
            if not 0 <= beam < self.dbfn.num_beams:
                raise ValueError(f"beam {beam} out of range")
            x = self.dbfn.form_beams(x)[beam]
        if self.channelizer is None:
            return x[None, :]
        usable = (len(x) // cfg.num_carriers) * cfg.num_carriers
        if not usable:
            raise ValueError(
                f"wideband block of {len(x)} samples is shorter than the "
                f"{cfg.num_carriers}-sample minimum of a "
                f"{cfg.num_carriers}-carrier DEMUX"
            )
        return self.channelizer.process(x[:usable])

    def process_uplink(
        self, wideband: np.ndarray, beam: int = 0, decode: bool = False
    ) -> Dict[str, object]:
        """Run the Fig. 2 Rx chain on a wideband block.

        With a multi-element front end, ``beam`` selects which DBFN
        output feeds the carrier DEMUX (one demod bank serves the chosen
        beam; a full multi-beam payload instantiates one payload per
        beam or time-shares the bank).

        The demodulator bank runs batch-first: live carriers are grouped
        by loaded personality and each group is demodulated in **one**
        ``receive_batch`` call over its ``(C, n)`` channel stack, each
        carrier delivering its modem's ``bits_per_burst``.  TDMA and
        CDMA carriers share the path.

        With ``decode=True`` the payload also regenerates every
        carrier's transport block **in one batched decoder call**: each
        successfully synchronized carrier's payload symbols are
        soft-demapped (noise variance from the per-burst M2M4 SNR
        estimate), the LLR blocks are stacked and fed through the
        decoder personality's ``decode_batch`` -- the single-trellis-sweep
        hot path the batching engine exists for.  Per-carrier
        diagnostics are preserved, carriers that failed sync/equipment
        are *skipped* (``decoded[k] is None``) so the FDIR health bank
        only sees CRC outcomes for blocks that were really decoded.

        Returns per-carrier demodulated bits plus chain diagnostics
        (and ``decoded`` when requested).
        """
        channels = self.channelize(wideband, beam)
        results = self._demod_carriers(channels)
        out_bits: List[np.ndarray] = [bits for bits, _ in results]
        diags: List[dict] = [diag for _, diag in results]
        if self.health is not None:
            for k, diag in enumerate(diags):
                self.health.observe_burst(k, diag)
        result: Dict[str, object] = {"bits": out_bits, "diagnostics": diags}
        if decode:
            result["decoded"] = self._decode_uplink_blocks(diags)
        return result

    def _demod_carriers(self, channels: np.ndarray) -> List[tuple]:
        """Every carrier's demodulation lane: ``[(bits, diagnostics)]``.

        Equipment and burst-sync faults are contained *per carrier*
        (silence plus a diagnostic for the FDIR detection path), so one
        carrier's failure can never abort another lane: a dead
        demodulator is caught before its carrier joins a group, and a
        carrier that loses sync (a TDMA burst with no unique word, or
        any burst with non-finite samples) comes back from
        ``receive_batch`` as its own row's
        :class:`~repro.dsp.tdma.BurstSyncError`.
        Anything else that raises is a genuine bug and propagates.
        """
        results: List[Optional[tuple]] = [None] * len(self.demods)
        groups: Dict[Optional[str], tuple] = {}
        for k, eq in enumerate(self.demods):
            try:
                modem = eq.behaviour()
            except EquipmentError as exc:
                # fault containment: a dead demodulator (latch-up, SEU)
                # silences its own carrier only -- the FDIR isolation
                # ladder picks the diagnostic up from here.  With no
                # live modem to size it, the silence is one default burst.
                silence = np.zeros(CdmaModem.bits_per_burst, dtype=np.uint8)
                results[k] = (silence, {"equipment_failed": str(exc)})
                continue
            groups.setdefault(eq.loaded_design, (modem, []))[1].append(k)
        for modem, ks in groups.values():
            for k, res in zip(ks, modem.receive_batch(channels[ks])):
                if isinstance(res, BurstSyncError):
                    # a carrier that failed burst sync delivers nothing; the
                    # payload reports it instead of aborting the other carriers
                    silence = np.zeros(modem.bits_per_burst, dtype=np.uint8)
                    results[k] = (silence, {"sync_failed": str(res)})
                else:
                    results[k] = _split_bits(res)
        return results

    def process_return_link(
        self,
        samples: np.ndarray,
        num_users: int,
        num_bits: int = CdmaModem.bits_per_burst,
        carrier: int = 0,
    ) -> Dict[str, object]:
        """Demodulate a multi-user CDMA return-link composite in one pass.

        The CDMA personality's multi-user front door: ``samples`` is one
        composite waveform carrying ``num_users`` code-multiplexed users
        (consecutive Gold scrambling overlays above the loaded modem's
        ``scrambling_shift``), and the whole bank is demodulated through
        the batched return-link engine -- the matched filter runs once,
        acquisition is one FFT pass over all user codes, and tracking /
        despreading run in ``U``-wide lock-step.  The bank comes from
        :meth:`~repro.dsp.cdma.CdmaReturnBank.for_users`, which caches
        it per ``(num_users, modem config)``, so repeated calls build
        nothing.  Per-user results are bit-identical to running each
        user's scalar ``receive`` on the same composite.

        How many users one composite carries is bounded by
        multiple-access interference between the short, non-orthogonal
        scrambled codes, not by this receiver: noiseless, SF 16 decodes
        2 users clean but not 3 or 4, while SF 64 decodes 8 (see
        ``for_users``).  ``num_users`` is not checked against that
        bound.

        Requires the carrier's demod to carry a CDMA personality
        (``modem.cdma``); anything else raises ``TypeError``.  Equipment
        faults are contained exactly like :meth:`process_uplink`: a dead
        demodulator silences every user of its carrier and reports a
        diagnostic instead of raising.  With an attached health bank,
        each user's diagnostics are delivered as
        ``observe_burst(carrier, diag)``: every user of the composite
        feeds the health monitor of the carrier it arrived on.

        Returns ``{"bits": [per-user bits], "diagnostics": [per-user
        diagnostic dicts]}``.  A burst with no payload symbols
        (``num_bits=0``) returns empty bits with ``carrier_lock`` and
        ``snr_db`` set to ``None``, which the health monitor skips.
        """
        if not 0 <= carrier < len(self.demods):
            raise ValueError(f"carrier {carrier} out of range")
        try:
            modem = self.demods[carrier].behaviour()
        except EquipmentError as exc:
            results = [
                (np.zeros(num_bits, dtype=np.uint8), {"equipment_failed": str(exc)})
                for _ in range(num_users)
            ]
        else:
            if not isinstance(modem, CdmaModem):
                raise TypeError(
                    "process_return_link needs a CDMA personality "
                    f"(modem.cdma); carrier {carrier} carries "
                    f"{type(modem).__name__}"
                )
            bank = CdmaReturnBank.for_users(num_users, modem.config)
            results = [
                _split_bits(r) for r in bank.receive(np.asarray(samples), num_bits)
            ]
        out_bits = [bits for bits, _ in results]
        diags = [diag for _, diag in results]
        if self.health is not None:
            for diag in diags:
                self.health.observe_burst(carrier, diag)
        return {"bits": out_bits, "diagnostics": diags}

    def _decode_uplink_blocks(self, diags: List[dict]) -> List[Optional[dict]]:
        """Batched regeneration of all carriers' transport blocks.

        Soft-demaps each synchronized carrier's payload symbols with its
        modem's constellation, stacks the LLR blocks and runs them
        through the decoder personality's ``decode_batch`` in **one**
        call: all carriers share a single trellis sweep instead of one
        scalar decode each.  Carriers without usable symbols
        (sync/equipment failure, or too few bits for the chain's
        ``physical_bits``) yield ``None``; every decoded carrier's CRC
        outcome goes to the attached health bank.

        A dead decoder (SEU, power-off) is contained here, mirroring
        fault containment on the demod side: every synchronized carrier
        is reported to the health bank as a CRC failure so the FDIR
        detection path sees the fault, and all carriers yield ``None``
        instead of the fault aborting the uplink.
        """
        decoded: List[Optional[dict]] = [None] * len(diags)
        try:
            chain = self.decoder.behaviour()
        except EquipmentError:
            if self.health is not None:
                for k, diag in enumerate(diags):
                    if diag.get("symbols") is not None:
                        self.health.observe_decode(k, False)
            return decoded
        n_llr = chain.physical_bits
        # one stacked soft demap per (constellation, burst length)
        groups: Dict[tuple, tuple] = {}
        for k, diag in enumerate(diags):
            syms = diag.get("symbols")
            if syms is None:
                continue  # sync or equipment failure: nothing to decode
            psk = self.demods[k].behaviour().psk
            if len(syms) * psk.bits_per_symbol < n_llr:
                continue
            groups.setdefault((psk.order, len(syms)), (psk, []))[1].append(k)
        llrs: Dict[int, np.ndarray] = {}
        for psk, ks in groups.values():
            syms = np.stack([diags[k]["symbols"] for k in ks])
            # noise variance from the blind per-burst SNR estimate
            es = np.mean(np.abs(syms) ** 2, axis=1).tolist()
            noise_var = []
            for k, e in zip(ks, es):
                snr = 10.0 ** (float(diags[k].get("snr_db", 40.0)) / 10.0)
                noise_var.append(max(e / max(snr, 1e-6), 1e-12))
            block = psk.demodulate_soft(syms, np.array(noise_var))[:, :n_llr]
            llrs.update(zip(ks, block))
        if not llrs:
            return decoded
        carriers = sorted(llrs)
        res = chain.decode_batch(np.stack([llrs[k] for k in carriers]))
        p = probe("perf.payload", stage="decode")
        if p is not None:
            p.count("decode_batches")
            p.count("decode_blocks", len(carriers))
        crc = res["crc_ok"]
        for i, k in enumerate(carriers):
            ok = None if crc is None else bool(crc[i])
            decoded[k] = {"bits": res["bits"][i], "crc_ok": ok}
            if self.health is not None:
                self.health.observe_decode(k, bool(ok))
        return decoded

    def decode_block(self, llr: np.ndarray) -> dict:
        """Run one transport block through the decoder personality."""
        return self.decoder.behaviour().decode(llr)

    def route_packets(self, packets: List[bytes]) -> dict:
        """Baseband switching of regenerated packets."""
        ports = [self.switch.route(p) for p in packets]
        return {"ports": ports, "routed": self.switch.routed, "dropped": self.switch.dropped}

    # -- the transmit chain (Fig. 2 Tx part) --------------------------------
    def build_downlink(self, port: int) -> dict:
        """Drain one switch port and modulate its packets for downlink.

        The Tx part of Fig. 2: regenerated packets are re-encoded by the
        decoder personality's encoder, re-modulated by the (TDMA) modem
        personality in one ``transmit_batch`` call, and quantized by the
        DAC.  Returns the downlink samples plus the packets carried.

        Packets are fit into transport blocks (padded/truncated to the
        chain's block size) -- one burst per packet.
        """
        packets = self.switch.drain(port)
        chain = self.decoder.behaviour()
        modem = self.demods[port % len(self.demods)].behaviour()
        if not isinstance(modem, TdmaModem):
            raise ValueError(
                "downlink modulation requires a TDMA personality on the Tx modem"
            )
        if not packets:
            samples = np.zeros(0, dtype=np.complex128)
            return {"samples": samples, "packets": packets, "bursts": 0}
        blocks = np.zeros((len(packets), chain.transport_block), dtype=np.uint8)
        for block, packet in zip(blocks, packets):
            bits = np.unpackbits(np.frombuffer(packet, dtype=np.uint8))
            n = min(len(bits), chain.transport_block)
            block[:n] = bits[:n]
        bursts = modem.transmit_batch(chain.encode(blocks)[:, : modem.bits_per_burst])
        samples = self.dac.convert(bursts.ravel())
        return {"samples": samples, "packets": packets, "bursts": len(packets)}


def _split_bits(res: dict) -> tuple:
    """A receive result as ``(bits, diagnostics without the bits)``."""
    return res["bits"], {key: res[key] for key in res if key != "bits"}


def transmit_carriers(carriers: List[tuple], bits: List[np.ndarray]) -> List[np.ndarray]:
    """Synthesize one burst per carrier, batched by personality.

    ``carriers[i]`` is the ``(design, modem)`` pair sending ``bits[i]``.
    Carriers sharing a design name and a bit count are built in one
    ``transmit_batch`` call; the bursts come back in carrier order.
    """
    if len(carriers) != len(bits):
        raise ValueError("need one bit burst per carrier")
    rows = [np.asarray(b, dtype=np.uint8).ravel() for b in bits]
    groups: Dict[tuple, tuple] = {}
    for i, ((design, modem), row) in enumerate(zip(carriers, rows)):
        groups.setdefault((design, len(row)), (modem, []))[1].append(i)
    bursts: List[Optional[np.ndarray]] = [None] * len(rows)
    for modem, idx in groups.values():
        stack = modem.transmit_batch(np.stack([rows[i] for i in idx]))
        for i, burst in zip(idx, stack):
            bursts[i] = burst
    return bursts


class Platform:
    """The Fig. 1 platform: TC/TM relay and clock/frequency references.

    The platform "interprets commands given to the satellite by an
    operation center and transmits information through a telemetry
    channel"; equipment-level work is delegated to the OBC.
    """

    def __init__(self, payload: RegenerativePayload) -> None:
        self.payload = payload
        self.clock_ppm = 0.05  # reference stability, informational
        self.tc_count = 0
        self.tm_count = 0

    def handle_telecommand(self, tc: Telecommand) -> Telemetry:
        """Relay a TC to the on-board controller, count TM back."""
        self.tc_count += 1
        tm = self.payload.obc.execute(tc)
        self.tm_count += 1
        return tm
