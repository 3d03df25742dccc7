"""Catalogue of loadable digital functions (modem/decoder personalities).

Each :class:`FunctionDesign` couples three things the paper keeps
together in §2.3:

- a **behavioural model** -- the factory building the DSP/decoder object
  that actually processes samples (:mod:`repro.dsp`, :mod:`repro.coding`);
- a **gate budget** from the complexity model (:mod:`repro.fpga.gates`),
  checked against the target device's capacity ("a change to a TDMA
  demodulator is compatible with the existing hardware profile");
- a deterministic **bitstream** image for the target geometry, which is
  what the NCC actually uploads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..coding import CodingScheme, TransportChain
from ..dsp.cdma import CdmaConfig, CdmaModem
from ..dsp.tdma import BurstFormat, TdmaModem
from ..fpga.bitstream import Bitstream
from ..fpga.gates import (
    cdma_demodulator_gates,
    tdma_timing_recovery_gates,
    turbo_decoder_gates,
    viterbi_decoder_gates,
)

__all__ = ["FunctionDesign", "FunctionRegistry", "default_registry"]


@dataclass
class FunctionDesign:
    """One loadable personality.

    ``factory()`` builds the behavioural object; ``gates`` is the
    synthesis estimate; ``bitstream_for(geometry)`` renders the design
    into a configuration image (deterministic per design+geometry, so a
    re-uploaded design produces an identical CRC).
    """

    name: str
    kind: str  # "modem" | "decoder"
    gates: float
    factory: Callable[[], Any] = field(repr=False)
    version: int = 1
    description: str = ""

    def fits(self, gate_capacity: float) -> bool:
        """Does this design fit a device of the given capacity?"""
        return self.gates <= gate_capacity

    def bitstream_for(self, rows: int, cols: int, bits_per_clb: int) -> Bitstream:
        """Render a deterministic configuration image for a geometry."""
        # a CRC of the design tag, not hash() (salted per process)
        tag = f"{self.name}:{self.version}:{rows}x{cols}x{bits_per_clb}"
        seed = zlib.crc32(tag.encode())
        rng = np.random.Generator(np.random.PCG64(seed))
        return Bitstream.random(
            self.name, rows, cols, bits_per_clb, rng, version=self.version
        )


class FunctionRegistry:
    """Name-indexed store of :class:`FunctionDesign` entries."""

    def __init__(self) -> None:
        self._designs: Dict[str, FunctionDesign] = {}

    def add(self, design: FunctionDesign) -> None:
        if design.name in self._designs:
            raise ValueError(f"design {design.name!r} already registered")
        self._designs[design.name] = design

    def get(self, name: str) -> FunctionDesign:
        if name not in self._designs:
            raise KeyError(f"unknown design {name!r}")
        return self._designs[name]

    def names(self) -> list[str]:
        return sorted(self._designs)

    def __contains__(self, name: str) -> bool:
        return name in self._designs

    def __len__(self) -> int:
        return len(self._designs)


def default_registry(
    tdma_burst: Optional[BurstFormat] = None,
    cdma_config: Optional[CdmaConfig] = None,
    transport_block: int = 244,
    physical_bits: Optional[int] = None,
) -> FunctionRegistry:
    """The paper's five personalities.

    ``physical_bits`` is forwarded to every decoder personality's
    :class:`~repro.coding.TransportChain`: when set, rate matching
    punctures/repeats each coded block to exactly that size, which is
    how a transport block is fitted to the modem's burst capacity for
    the end-to-end batched decode path
    (:meth:`repro.core.payload.RegenerativePayload.process_uplink`
    with ``decode=True``).

    Three waveform personalities:

    - ``modem.cdma`` -- S-UMTS CDMA return-link demodulator (Fig. 3 left);
    - ``modem.tdma`` -- QPSK MF-TDMA burst demodulator (Fig. 3 right);
    - ``modem.tdma8`` -- 8PSK MF-TDMA variant (+50 % rate), the kind of
      post-launch service upgrade the paper's conclusion promises;

    and three decoder personalities (§2.3, UMTS TS 25.212):

    - ``decod.none``, ``decod.conv``, ``decod.turbo``.
    """
    reg = FunctionRegistry()
    reg.add(
        FunctionDesign(
            name="modem.cdma",
            kind="modem",
            gates=cdma_demodulator_gates(num_users=1),
            factory=lambda: CdmaModem(cdma_config or CdmaConfig()),
            description="S-UMTS CDMA modem: acquisition [7], DLL [8], despread",
        )
    )
    reg.add(
        FunctionDesign(
            name="modem.tdma",
            kind="modem",
            gates=tdma_timing_recovery_gates(num_carriers=6),
            factory=lambda: TdmaModem(tdma_burst or BurstFormat()),
            description="MF-TDMA burst modem: Gardner [5] / Oerder&Meyr [6]",
        )
    )
    reg.add(
        FunctionDesign(
            name="modem.tdma8",
            kind="modem",
            gates=1.4 * tdma_timing_recovery_gates(num_carriers=6),
            factory=lambda: TdmaModem(tdma_burst or BurstFormat(), modulation=8),
            version=1,
            description="8PSK MF-TDMA modem: +50% rate for evolved services",
        )
    )
    reg.add(
        FunctionDesign(
            name="decod.none",
            kind="decoder",
            gates=5_000.0,  # CRC check + framing only
            factory=lambda: TransportChain(
                CodingScheme.NONE,
                transport_block=transport_block,
                physical_bits=physical_bits,
            ),
            description="uncoded transport channel (CRC only)",
        )
    )
    reg.add(
        FunctionDesign(
            name="decod.conv",
            kind="decoder",
            gates=viterbi_decoder_gates(),
            factory=lambda: TransportChain(
                CodingScheme.CONVOLUTIONAL,
                transport_block=transport_block,
                physical_bits=physical_bits,
            ),
            description="UMTS K=9 convolutional code, Viterbi decoder",
        )
    )
    reg.add(
        FunctionDesign(
            name="decod.turbo",
            kind="decoder",
            gates=turbo_decoder_gates(),
            factory=lambda: TransportChain(
                CodingScheme.TURBO,
                transport_block=transport_block,
                physical_bits=physical_bits,
            ),
            description="UMTS PCCC turbo code, max-log-MAP decoder",
        )
    )
    return reg
