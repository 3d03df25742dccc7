"""SEU injection into FPGA configuration memory.

Couples the radiation environment (:mod:`repro.radiation`) to the
device model: upsets arrive as a Poisson process over the configuration
bits and are applied with :meth:`repro.fpga.device.Fpga.upset_bits`.
Supports both batch ("advance time by T") and event-driven use.
"""

from __future__ import annotations

import numpy as np

from ..radiation import RadiationEnvironment
from ..radiation.effects import SeuProcess
from .device import Fpga

__all__ = ["SeuInjector"]


class SeuInjector:
    """Injects environment-driven SEUs into a device's configuration.

    Parameters
    ----------
    fpga:
        Target device (must be configured before injecting).
    env:
        Radiation environment providing the per-bit upset rate.
    rng:
        Random stream (use a named stream from :mod:`repro.sim.rng`).
    """

    def __init__(
        self, fpga: Fpga, env: RadiationEnvironment, rng: np.random.Generator
    ) -> None:
        self.fpga = fpga
        self.process = SeuProcess(env, fpga.num_config_bits, rng)

    def advance(self, seconds: float) -> int:
        """Inject the upsets accrued over ``seconds``; returns the count."""
        idx = self.process.upsets_in(seconds)
        if len(idx):
            self.fpga.upset_bits(idx)
        return len(idx)
