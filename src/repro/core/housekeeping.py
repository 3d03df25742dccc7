"""On-board housekeeping processes (simulated time).

Ties the §4.3 mitigation engines and the §3.2 validation service into
the discrete-event world: a scrub process periodically rewrites or
repairs configuration memory while an SEU process injects upsets, and a
validation process CRCs each equipment on a schedule and emits telemetry
-- the steady-state life of the payload between reconfigurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..fpga.device import Fpga
from ..fpga.mitigation import BlindScrubber, ReadbackScrubber
from ..fpga.seu import SeuInjector
from ..radiation import RadiationEnvironment
from ..sim import Simulator
from .obc import OnBoardController, Telemetry

__all__ = ["RadiationExposure", "ScrubProcess", "ValidationProcess", "HousekeepingLog"]


@dataclass
class HousekeepingLog:
    """Counters produced by the housekeeping processes."""

    upsets: int = 0
    scrubs: int = 0
    repairs: int = 0
    validations: int = 0
    validation_failures: int = 0
    downtime_observations: int = 0
    observations: int = 0

    @property
    def availability(self) -> float:
        """Fraction of observations with the function intact."""
        if self.observations == 0:
            return 1.0
        return 1.0 - self.downtime_observations / self.observations


class RadiationExposure:
    """Continuous SEU exposure of one device as a sim process."""

    def __init__(
        self,
        sim: Simulator,
        fpga: Fpga,
        env: RadiationEnvironment,
        rng: np.random.Generator,
        step: float = 3600.0,
        log: Optional[HousekeepingLog] = None,
    ) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        self.sim = sim
        self.injector = SeuInjector(fpga, env, rng)
        self.step = step
        self.log = log or HousekeepingLog()
        self.process = sim.process(self._run(), name=f"seu-{fpga.name}")

    def _run(self):
        while True:
            yield self.sim.timeout(self.step)
            self.log.upsets += self.injector.advance(self.step)


class ScrubProcess:
    """Periodic scrubbing as a sim process.

    ``mode="blind"`` rewrites everything (the paper's preferred
    scheme); ``mode="readback"`` detects per-CLB and repairs.
    """

    def __init__(
        self,
        sim: Simulator,
        fpga: Fpga,
        period: float,
        mode: str = "blind",
        log: Optional[HousekeepingLog] = None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if mode not in ("blind", "readback"):
            raise ValueError("mode must be 'blind' or 'readback'")
        self.sim = sim
        self.fpga = fpga
        self.period = period
        self.mode = mode
        self.log = log or HousekeepingLog()
        if mode == "blind":
            self._engine = BlindScrubber(fpga, period=period)
        else:
            engine = ReadbackScrubber(fpga, mode="crc")
            engine.snapshot()
            self._engine = engine
        self.process = sim.process(self._run(), name=f"scrub-{fpga.name}")

    def _run(self):
        while True:
            yield self.sim.timeout(self.period)
            if self.mode == "blind":
                self._engine.scrub()
                self.log.scrubs += 1
            else:
                self.log.repairs += self._engine.scan_and_repair()
                self.log.scrubs += 1


class ValidationProcess:
    """Periodic §3.2 validation of every equipment, with telemetry.

    Each cycle CRC-checks each registered equipment against the library
    image, logs availability, and appends a TM frame to the OBC log.

    ``notify``, when given, is called as ``notify(equipment_name,
    crc_ok)`` after each per-equipment check -- the hook through which
    housekeeping validation outcomes feed external FDIR machinery (e.g.
    the :mod:`repro.robustness.fdir` arbiter or the safe-mode
    watchdog).  Hook exceptions are swallowed: housekeeping must never
    die because a consumer misbehaved.
    """

    def __init__(
        self,
        sim: Simulator,
        obc: OnBoardController,
        period: float = 6 * 3600.0,
        log: Optional[HousekeepingLog] = None,
        notify=None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.obc = obc
        self.period = period
        self.log = log or HousekeepingLog()
        self.notify = notify
        self.process = sim.process(self._run(), name="validation")

    def _run(self):
        while True:
            yield self.sim.timeout(self.period)
            for name, eq in self.obc.equipments.items():
                if eq.loaded_design is None:
                    continue
                self.log.observations += 1
                ok = eq.operational
                if not ok:
                    self.log.downtime_observations += 1
                self.log.validations += 1
                try:
                    expected = self.obc.library.fetch(eq.loaded_design)
                    crc_ok = eq.fpga.config_crc32() == expected.crc32()
                except Exception:
                    crc_ok = False
                if not crc_ok:
                    self.log.validation_failures += 1
                if self.notify is not None:
                    try:
                        self.notify(name, crc_ok)
                    except Exception:
                        pass  # FDIR consumers must not kill housekeeping
                self.obc.tm_log.append(
                    Telemetry(
                        0,
                        crc_ok,
                        {"housekeeping": name, "t": self.sim.now, "operational": ok},
                    )
                )
