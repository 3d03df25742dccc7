"""CLB-grid FPGA model.

Models the device features the paper builds on (§4.3, citing the Xilinx
Virtex architecture [13]):

- the FPGA is a grid of **configurable logic blocks** (CLBs) "which can
  be identified through two addresses (one in column and one in row)";
- **read-back**: any CLB's configuration can be read without
  interrupting operation;
- **partial configuration**: any CLB can be rewritten independently
  (when the part supports it -- §4.4 notes "major FPGAs are not
  partially configurable and only a global reload is possible", so the
  capability is a constructor flag);
- **global configuration** through a JTAG-style port, allowed only with
  the device held in the unconfigured/powered-down state (the §3.1
  sequence: switch off, reload, verify, switch on).

Functional correctness of the hosted design is tied to configuration
integrity: a fraction of the configuration bits are *essential* (as in
real SRAM FPGAs, where only ~10 % of upsets matter); the hosted function
is declared faulty while any essential bit differs from the golden
image.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from ..obs.probes import probe as _obs_probe
from .bitstream import Bitstream

__all__ = ["Fpga", "FpgaError", "PowerState"]


class FpgaError(RuntimeError):
    """Illegal operation on the device (wrong power state, geometry...)."""


class PowerState(str, Enum):
    OFF = "off"
    CONFIGURING = "configuring"
    ON = "on"


class Fpga:
    """A reconfigurable device hosting one digital function.

    Parameters
    ----------
    rows, cols:
        CLB grid geometry.
    bits_per_clb:
        Configuration bits per CLB (frames).
    gate_capacity:
        Equivalent-gate capacity (checked against design requirements by
        :mod:`repro.core.registry`).
    supports_partial:
        Whether per-CLB partial reconfiguration is available.
    essential_fraction:
        Fraction of configuration bits whose corruption breaks the
        hosted function.
    config_write_rate:
        Bits/second of the configuration port (drives reconfiguration
        timing in :mod:`repro.core.reconfig`).
    """

    def __init__(
        self,
        rows: int = 32,
        cols: int = 32,
        bits_per_clb: int = 64,
        gate_capacity: int = 1_000_000,
        supports_partial: bool = True,
        essential_fraction: float = 0.1,
        config_write_rate: float = 10e6,
        name: str = "fpga0",
    ) -> None:
        if rows < 1 or cols < 1 or bits_per_clb < 1:
            raise ValueError("geometry must be positive")
        if not 0.0 < essential_fraction <= 1.0:
            raise ValueError("essential_fraction must be in (0, 1]")
        self.rows = rows
        self.cols = cols
        self.bits_per_clb = bits_per_clb
        self.gate_capacity = gate_capacity
        self.supports_partial = supports_partial
        self.essential_fraction = essential_fraction
        self.config_write_rate = config_write_rate
        self.name = name

        self.power = PowerState.OFF
        self._config = np.zeros((rows, cols, bits_per_clb), dtype=np.uint8)
        self._golden: Optional[np.ndarray] = None
        self._essential_mask: Optional[np.ndarray] = None
        self.loaded_function: Optional[str] = None
        self.loaded_version: Optional[int] = None
        # counters for diagnostics/benchmarks
        self.stats = {
            "global_loads": 0,
            "partial_writes": 0,
            "readbacks": 0,
            "upsets_injected": 0,
        }
        self._probe = _obs_probe("fpga.device", device=name)

    # -- geometry ---------------------------------------------------------
    @property
    def num_config_bits(self) -> int:
        """Total configuration memory size in bits."""
        return self._config.size

    def _check_addr(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise FpgaError(f"CLB address ({row},{col}) out of range")

    # -- power sequencing ---------------------------------------------------
    def power_off(self) -> None:
        """Hold the device (and the service it carries) down."""
        self.power = PowerState.OFF

    def power_on(self) -> None:
        """Start the hosted function; requires a loaded configuration."""
        if self._golden is None:
            raise FpgaError("cannot power on an unconfigured device")
        self.power = PowerState.ON

    # -- configuration ------------------------------------------------------
    def configure(self, bitstream: Bitstream) -> None:
        """Global (full) reload through the configuration port.

        Only legal while the device is OFF -- the paper's sequence
        explicitly switches the FPGA (and its services) off first.
        """
        if self.power is not PowerState.OFF:
            raise FpgaError("global reconfiguration requires the device OFF")
        if (bitstream.rows, bitstream.cols, bitstream.bits_per_clb) != (
            self.rows,
            self.cols,
            self.bits_per_clb,
        ):
            raise FpgaError(
                f"bitstream geometry {(bitstream.rows, bitstream.cols, bitstream.bits_per_clb)}"
                f" does not fit device {(self.rows, self.cols, self.bits_per_clb)}"
            )
        self.power = PowerState.CONFIGURING
        self._config = bitstream.frames.copy()
        self._golden = bitstream.frames.copy()
        # deterministic essential-bit mask derived from the design itself
        seed = bitstream.crc32()
        rng = np.random.Generator(np.random.PCG64(seed))
        n = self.num_config_bits
        k = max(1, int(round(n * self.essential_fraction)))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=k, replace=False)] = True
        self._essential_mask = mask.reshape(self._config.shape)
        self.loaded_function = bitstream.function
        self.loaded_version = bitstream.version
        self.stats["global_loads"] += 1
        if self._probe is not None:
            self._probe.count("global_loads")
            self._probe.event("fpga.configure", function=bitstream.function, version=bitstream.version)
        self.power = PowerState.OFF

    def config_load_seconds(self, bitstream: Bitstream) -> float:
        """Time to push a full image through the configuration port."""
        return bitstream.num_bits / self.config_write_rate

    def configure_region(
        self, row0: int, col0: int, frames: np.ndarray, update_golden: bool = True
    ) -> None:
        """Partial reconfiguration of a rectangular CLB region, in service.

        This is §4.4's "chip per function" / "only a part of the chip
        needs to be changed" case: the region's configuration (and, by
        default, the golden reference, since the region now implements a
        *new* design) is rewritten without touching the rest of the
        device or its power state.
        """
        if not self.supports_partial:
            raise FpgaError(f"{self.name} supports only global reload")
        if self._golden is None:
            raise FpgaError("device not configured")
        frames = np.asarray(frames, dtype=np.uint8)
        if frames.ndim != 3 or frames.shape[2] != self.bits_per_clb:
            raise FpgaError(
                f"region must be (h, w, {self.bits_per_clb}), got {frames.shape}"
            )
        h, w, _ = frames.shape
        if not (0 <= row0 and row0 + h <= self.rows and 0 <= col0 and col0 + w <= self.cols):
            raise FpgaError(
                f"region [{row0}:{row0+h}, {col0}:{col0+w}] exceeds the grid"
            )
        self._config[row0 : row0 + h, col0 : col0 + w] = frames
        if update_golden:
            self._golden[row0 : row0 + h, col0 : col0 + w] = frames
        self.stats["partial_writes"] += h * w
        if self._probe is not None:
            self._probe.count("partial_writes", h * w)

    def region_load_seconds(self, height: int, width: int) -> float:
        """Time to push a region image through the configuration port."""
        return height * width * self.bits_per_clb / self.config_write_rate

    def partial_configure(self, row: int, col: int, frame: np.ndarray) -> None:
        """Rewrite one CLB without interrupting operation (§4.3).

        Raises :class:`FpgaError` when the part does not support partial
        reconfiguration (§4.4) or is not configured.
        """
        if not self.supports_partial:
            raise FpgaError(f"{self.name} supports only global reload")
        if self._golden is None:
            raise FpgaError("device not configured")
        self._check_addr(row, col)
        frame = np.asarray(frame, dtype=np.uint8)
        if frame.shape != (self.bits_per_clb,):
            raise FpgaError(f"frame must have {self.bits_per_clb} bits")
        self._config[row, col] = frame
        self.stats["partial_writes"] += 1
        if self._probe is not None:
            self._probe.count("partial_writes")

    # -- readback -------------------------------------------------------------
    def readback(self, row: int, col: int) -> np.ndarray:
        """Read one CLB's configuration without interrupting operation."""
        if self._golden is None:
            raise FpgaError("device not configured")
        self._check_addr(row, col)
        self.stats["readbacks"] += 1
        if self._probe is not None:
            self._probe.count("readbacks")
        return self._config[row, col].copy()

    def golden_frame(self, row: int, col: int) -> np.ndarray:
        """The as-loaded (golden) configuration of one CLB."""
        if self._golden is None:
            raise FpgaError("device not configured")
        self._check_addr(row, col)
        return self._golden[row, col].copy()

    # -- integrity ----------------------------------------------------------
    def config_crc32(self) -> int:
        """CRC32 of the live configuration (validation-service auto-test)."""
        if self._golden is None:
            raise FpgaError("device not configured")
        import zlib

        return zlib.crc32(np.packbits(self._config.ravel()).tobytes()) & 0xFFFFFFFF

    def upset_bits(self, flat_indices: np.ndarray) -> None:
        """Flip configuration bits (SEU injection hook)."""
        if self._golden is None:
            raise FpgaError("device not configured")
        flat = self._config.reshape(-1)
        idx = np.asarray(flat_indices, dtype=np.int64)
        if len(idx) and (idx.min() < 0 or idx.max() >= flat.size):
            raise FpgaError("upset index out of range")
        flat[idx] ^= 1
        self.stats["upsets_injected"] += len(idx)
        if self._probe is not None and len(idx):
            self._probe.count("upsets_injected", len(idx))
            self._probe.event("seu.hit", bits=len(idx))

    def corrupted_bits(self) -> int:
        """Number of configuration bits differing from the golden image."""
        if self._golden is None:
            raise FpgaError("device not configured")
        return int(np.count_nonzero(self._config != self._golden))

    def is_functional(self) -> bool:
        """True when powered on and no *essential* bit is corrupted."""
        if self.power is not PowerState.ON or self._golden is None:
            return False
        diff = self._config != self._golden
        return not bool(np.any(diff & self._essential_mask))

    def repair_clb(self, row: int, col: int) -> None:
        """Partial-reconfiguration repair: rewrite a CLB from golden."""
        self.partial_configure(row, col, self.golden_frame(row, col))

    def rewrite_all_from_golden(self) -> None:
        """Blind scrub: rewrite every CLB from the golden image.

        Uses partial configuration, so it runs with the device ON -- the
        paper calls this "SEU scrubbing; it is the most interesting
        solution for satellite applications".
        """
        if not self.supports_partial:
            raise FpgaError("blind scrub requires partial reconfiguration")
        if self._golden is None:
            raise FpgaError("device not configured")
        self._config[...] = self._golden
        self.stats["partial_writes"] += self.rows * self.cols
        if self._probe is not None:
            self._probe.count("partial_writes", self.rows * self.cols)
