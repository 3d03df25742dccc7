"""The traffic-plane world every scenario mission runs on.

A small but real regenerative payload: MF-TDMA carriers through the
polyphase channelizer, QPSK bursts sized so one convolutionally-coded
transport block (40 bits -> 192 coded bits) exactly fills a burst,
redundant demodulator pairs, the §3.2 reconfiguration manager with a
seeded on-board library, the safe-mode watchdog, and the FDIR stack
(:mod:`repro.robustness.fdir`: health monitors, recovery arbiter,
degraded-mode policy) on top.  The world is deterministic: it draws no
randomness of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.equipment import ReconfigurableEquipment
from ..core.payload import PayloadConfig, RegenerativePayload
from ..core.redundancy import RedundantEquipment
from ..core.registry import FunctionDesign, default_registry
from ..dsp.tdma import BurstFormat, FramePlan, TdmaModem
from ..fpga.device import Fpga
from ..robustness.fdir import (
    DegradedModePolicy,
    FdirArbiter,
    HealthMonitorBank,
)

__all__ = ["TrafficWorld", "build_traffic_world"]


def build_traffic_world(
    *,
    num_carriers: int = 3,
    down_cn_db: float = 16.0,
    required_ber: float = 1e-4,
) -> "TrafficWorld":
    """Assemble an ``num_carriers``-carrier regenerative payload with full FDIR.

    ``down_cn_db`` and ``required_ber`` set the degraded-mode policy's
    link budget (the regenerative downlink hop and the end-to-end BER
    target it sheds carriers to protect).
    """
    if num_carriers < 2:
        raise ValueError("the MF-TDMA traffic world needs >= 2 carriers")
    burst = BurstFormat(preamble=16, uw=16, payload=96)
    registry = default_registry(tdma_burst=burst, transport_block=40)
    # the CFO-tolerant fallback personality the recovery ladder loads
    registry.add(
        FunctionDesign(
            name="modem.tdma.robust",
            kind="modem",
            gates=1.15 * registry.get("modem.tdma").gates,
            factory=lambda: TdmaModem(burst, cfo_recovery=True),
            description="CFO-tolerant MF-TDMA modem (M-power FFT estimator)",
        )
    )
    cfg = PayloadConfig(
        num_carriers=num_carriers,
        fpga_rows=8,
        fpga_cols=8,
        fpga_bits_per_clb=32,
        channelizer_taps=8,
    )
    payload = RegenerativePayload(cfg, registry)
    payload.boot(modem="modem.tdma", decoder="decod.conv")
    # seed the on-board library so the §3.2 reconfiguration service can
    # fetch every personality the recovery ladder may ask for
    for name in registry.names():
        payload.obc.library.store(
            registry.get(name).bitstream_for(
                cfg.fpga_rows, cfg.fpga_cols, cfg.fpga_bits_per_clb
            )
        )
    # cold-spare pair behind every demodulator
    pairs: List[RedundantEquipment] = []
    for k, primary in enumerate(list(payload.demods)):
        spare_fpga = Fpga(
            rows=cfg.fpga_rows,
            cols=cfg.fpga_cols,
            bits_per_clb=cfg.fpga_bits_per_clb,
            gate_capacity=primary.fpga.gate_capacity,
            name=f"{primary.fpga.name}-spare",
        )
        spare = ReconfigurableEquipment(
            f"{primary.name}-spare",
            spare_fpga,
            registry,
            expected_kind=primary.expected_kind,
        )
        pair = RedundantEquipment(primary, spare)
        pair.record_design("modem.tdma")
        pairs.append(pair)
        payload.demods[k] = pair
    watchdog = payload.obc.arm_watchdog(
        golden={
            **{p.name: "modem.tdma" for p in pairs},
            payload.decoder.name: "decod.conv",
        },
        threshold=3,
    )
    plan = FramePlan(num_carriers=num_carriers, slots_per_frame=4)
    for k in range(num_carriers):
        plan.assign(f"term-{k}a", k, 0)
        plan.assign(f"term-{k}b", k, 1)
    policy = DegradedModePolicy(
        plan,
        down_cn_db=down_cn_db,
        required_ber=required_ber,
        shed_margin_db=0.0,
        restore_margin_db=2.0,
        min_active=1,
    )
    bank = HealthMonitorBank(num_carriers)
    payload.attach_health(bank)
    arbiter = FdirArbiter(
        payload, bank, watchdog=watchdog, policy=policy, patience=2
    )
    return TrafficWorld(
        payload=payload,
        pairs=pairs,
        bank=bank,
        plan=plan,
        policy=policy,
        arbiter=arbiter,
        watchdog=watchdog,
    )


@dataclass
class TrafficWorld:
    """Everything one traffic-plane run needs."""

    payload: RegenerativePayload
    pairs: List[RedundantEquipment]
    bank: HealthMonitorBank
    plan: FramePlan
    policy: DegradedModePolicy
    arbiter: FdirArbiter
    watchdog: object
    _ground: Dict[str, object] = field(default_factory=dict)

    @property
    def num_carriers(self) -> int:
        return self.plan.num_carriers

    def ground(self, design: str):
        """The terminal-side twin of an on-board personality.

        The modem or transport chain a ground terminal uses to talk to
        equipment carrying ``design``; one instance per design name.
        """
        twin = self._ground.get(design)
        if twin is None:
            twin = self.payload.registry.get(design).factory()
            self._ground[design] = twin
        return twin
