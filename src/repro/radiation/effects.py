"""Radiation effects: SEU arrival process and TID accumulation.

Two effect classes from the paper (§4.2):

- **SEU** -- a short, localized charge deposit flips a memory/logic
  state; modeled as a Poisson process over the device's bit population.
  "To suppress a SEU it is mandatory to reinitialize the logical device
  or to rewrite memory" -- which is exactly what the scrubbing engines
  in :mod:`repro.fpga.mitigation` do.
- **TID** -- cumulative dose shifts thresholds until the device degrades
  permanently; modeled as a krad budget against the device tolerance
  with a soft degradation onset.
"""

from __future__ import annotations

import numpy as np

from .environment import RadiationEnvironment

__all__ = ["SeuProcess", "TidAccumulator", "LatchUpModel"]


class SeuProcess:
    """Poisson SEU arrival process over a population of bits.

    Draws the number of upsets in a time window and the bit positions
    hit.  Positions are uniform over the population -- the standard
    assumption for configuration memory.
    """

    def __init__(
        self,
        env: RadiationEnvironment,
        num_bits: int,
        rng: np.random.Generator,
    ) -> None:
        if num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        self.env = env
        self.num_bits = num_bits
        self.rng = rng

    def upsets_in(self, seconds: float) -> np.ndarray:
        """Bit indices upset during a window of ``seconds`` (may repeat).

        The count is Poisson with mean ``num_bits * rate * seconds``.
        """
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        lam = self.env.expected_upsets(self.num_bits, seconds)
        n = int(self.rng.poisson(lam))
        return self.rng.integers(0, self.num_bits, size=n)


class TidAccumulator:
    """Total-ionizing-dose bookkeeping against a device tolerance.

    The device is *nominal* below ``degradation_onset`` (default 80 % of
    tolerance), *degraded* between onset and tolerance, *failed* above
    tolerance -- the standard derating treatment of Table-1 style TID
    ratings.
    """

    def __init__(self, tolerance_krad: float, degradation_onset: float = 0.8):
        if tolerance_krad <= 0:
            raise ValueError("tolerance must be positive")
        if not 0.0 < degradation_onset <= 1.0:
            raise ValueError("degradation_onset must be in (0, 1]")
        self.tolerance_krad = tolerance_krad
        self.onset_krad = tolerance_krad * degradation_onset
        self.dose_krad = 0.0

    def accumulate(self, env: RadiationEnvironment, years: float) -> None:
        """Add the dose collected over ``years`` in ``env``."""
        if years < 0:
            raise ValueError("years must be >= 0")
        self.dose_krad += env.dose_rate_krad_year() * years

    @property
    def state(self) -> str:
        """``"nominal"``, ``"degraded"`` or ``"failed"``."""
        if self.dose_krad >= self.tolerance_krad:
            return "failed"
        if self.dose_krad >= self.onset_krad:
            return "degraded"
        return "nominal"


class LatchUpModel:
    """Single-event latch-up (§4.2: "latch-up, burnout ... more
    difficult to recover from or impossible").

    Latch-up events arrive as a (rare) Poisson process per device.  An
    unprotected device is destroyed by its first event; a device behind
    a current-limiting/power-cycling protection circuit survives but
    takes a recovery outage per event.
    """

    def __init__(
        self,
        rate_per_device_day: float = 1e-4,
        protected: bool = True,
        recovery_seconds: float = 10.0,
    ) -> None:
        if rate_per_device_day < 0 or recovery_seconds < 0:
            raise ValueError("rate and recovery must be >= 0")
        self.rate = rate_per_device_day
        self.protected = protected
        self.recovery_seconds = recovery_seconds
        self.events = 0
        self.destroyed = False
        self.outage_seconds = 0.0

    def advance(self, days: float, rng: np.random.Generator) -> int:
        """Simulate ``days`` of exposure; returns latch-up event count."""
        if days < 0:
            raise ValueError("days must be >= 0")
        if self.destroyed:
            return 0
        n = int(rng.poisson(self.rate * days))
        self.events += n
        if n and not self.protected:
            self.destroyed = True
        elif n:
            self.outage_seconds += n * self.recovery_seconds
        return n
