"""Channel impairments for the satellite uplink.

The paper's payload receives a 30 GHz multi-frequency uplink from small,
not-powerful user terminals; the impairments that matter at complex
baseband are AWGN, carrier-frequency offset, oscillator phase noise,
propagation delay (integer + fractional) and, for the mobile user case,
a sparse multipath.  Each impairment is an independent composable block;
:class:`SatelliteChannel` chains them in the physical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .filters import fft_filter, fractional_delay_filter

__all__ = [
    "awgn",
    "apply_cfo",
    "apply_phase_noise",
    "apply_delay",
    "Multipath",
    "RainFadeProcess",
    "SatelliteChannel",
]


def awgn(
    x: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Add complex white Gaussian noise with per-dimension std ``sigma``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    x = np.asarray(x)
    if sigma == 0.0:
        return x.copy()
    noise = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
    return x + sigma * noise


def apply_cfo(x: np.ndarray, cfo: float, phase: float = 0.0) -> np.ndarray:
    """Apply a carrier-frequency offset (cycles/sample) and phase offset."""
    n = np.arange(len(x))
    return np.asarray(x) * np.exp(1j * (2.0 * np.pi * cfo * n + phase))


def apply_phase_noise(
    x: np.ndarray, linewidth_norm: float, rng: np.random.Generator
) -> np.ndarray:
    """Wiener (random-walk) phase noise.

    ``linewidth_norm`` is the two-sided Lorentzian linewidth normalized to
    the sample rate; the per-sample phase increment variance is
    ``2 * pi * linewidth_norm``.
    """
    if linewidth_norm < 0:
        raise ValueError("linewidth must be >= 0")
    if linewidth_norm == 0.0:
        return np.asarray(x).copy()
    inc = rng.standard_normal(len(x)) * np.sqrt(2.0 * np.pi * linewidth_norm)
    phase = np.cumsum(inc)
    return np.asarray(x) * np.exp(1j * phase)


def apply_delay(x: np.ndarray, delay: float, num_taps: int = 31) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    Output has the same length; the head is zero-filled.
    """
    if delay < 0:
        raise ValueError("delay must be >= 0")
    x = np.asarray(x, dtype=np.complex128)
    int_d = int(np.floor(delay))
    frac = delay - int_d
    if frac > 1e-12:
        h = fractional_delay_filter(frac, num_taps)
        gd = (num_taps - 1) // 2
        y = fft_filter(x, h)[gd : gd + len(x)]
    else:
        y = x.copy()
    if int_d:
        y = np.concatenate([np.zeros(int_d, dtype=y.dtype), y[: len(y) - int_d]])
    return y


@dataclass
class Multipath:
    """Sparse tapped-delay-line multipath.

    ``delays`` are in samples (integers), ``gains`` are complex tap gains.
    The direct path (delay 0, gain 1) must be included explicitly if wanted.
    """

    delays: tuple[int, ...] = (0,)
    gains: tuple[complex, ...] = (1.0 + 0j,)

    def __post_init__(self) -> None:
        if len(self.delays) != len(self.gains):
            raise ValueError("delays and gains must have equal length")
        if any(d < 0 for d in self.delays):
            raise ValueError("delays must be >= 0")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        out = np.zeros_like(x)
        for d, g in zip(self.delays, self.gains):
            if d == 0:
                out += g * x
            else:
                out[d:] += g * x[:-d]
        return out


class RainFadeProcess:
    """Ka-band rain attenuation as a two-state time series.

    The paper's uplink is "around 30 GHz" with a 500 MHz band -- the Ka
    band, where rain is the dominant link impairment.  A Gilbert-Elliott
    style model: exponential clear/rain dwell times; inside a rain event
    the excess attenuation is lognormal (median ``fade_median_db``).
    :meth:`advance` steps the weather; :meth:`attenuation_db` reports
    the current fade, which callers convert to an Eb/N0 penalty.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        availability: float = 0.95,
        mean_event_minutes: float = 30.0,
        fade_median_db: float = 6.0,
        fade_sigma: float = 0.6,
    ) -> None:
        if not 0.5 < availability < 1.0:
            raise ValueError("availability must be in (0.5, 1)")
        if mean_event_minutes <= 0 or fade_median_db <= 0:
            raise ValueError("event length and fade must be positive")
        self.rng = rng
        self.mean_rain = mean_event_minutes * 60.0
        # clear dwell chosen so the long-run rain fraction = 1-availability
        self.mean_clear = self.mean_rain * availability / (1.0 - availability)
        self.fade_median_db = fade_median_db
        self.fade_sigma = fade_sigma
        self.raining = False
        self.current_fade_db = 0.0
        self._next_transition = float(rng.exponential(self.mean_clear))
        self.events = 0
        self._now = 0.0

    def advance(self, seconds: float) -> None:
        """Step the weather forward (may cross several transitions)."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self._now += seconds
        while self._now >= self._next_transition:
            self.raining = not self.raining
            if self.raining:
                self.events += 1
                self.current_fade_db = float(
                    self.fade_median_db
                    * np.exp(self.fade_sigma * self.rng.standard_normal())
                )
                dwell = self.rng.exponential(self.mean_rain)
            else:
                self.current_fade_db = 0.0
                dwell = self.rng.exponential(self.mean_clear)
            self._next_transition += float(dwell)

    def attenuation_db(self) -> float:
        """Current excess path attenuation."""
        return self.current_fade_db if self.raining else 0.0


@dataclass
class SatelliteChannel:
    """Composite uplink channel: multipath -> delay -> CFO -> phase noise -> AWGN.

    Attributes
    ----------
    snr_sigma:
        Per-dimension noise std (use :func:`repro.dsp.modem.ebn0_to_sigma`
        to derive it from a target Eb/N0).
    cfo:
        Carrier-frequency offset, cycles/sample.
    phase:
        Static carrier-phase offset, radians.
    delay:
        Propagation delay in samples (may be fractional).
    linewidth:
        Normalized phase-noise linewidth (0 disables).
    multipath:
        Optional :class:`Multipath` profile.
    rng:
        Noise stream; required whenever ``snr_sigma > 0`` or phase noise on.
    """

    snr_sigma: float = 0.0
    cfo: float = 0.0
    phase: float = 0.0
    delay: float = 0.0
    linewidth: float = 0.0
    multipath: Optional[Multipath] = None
    rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Run a block through the impairment chain."""
        y = np.asarray(x, dtype=np.complex128)
        if self.multipath is not None:
            y = self.multipath.apply(y)
        if self.delay > 0:
            y = apply_delay(y, self.delay)
        if self.cfo != 0.0 or self.phase != 0.0:
            y = apply_cfo(y, self.cfo, self.phase)
        if self.linewidth > 0.0:
            if self.rng is None:
                raise ValueError("phase noise requires an rng")
            y = apply_phase_noise(y, self.linewidth, self.rng)
        if self.snr_sigma > 0.0:
            if self.rng is None:
                raise ValueError("AWGN requires an rng")
            y = awgn(y, self.snr_sigma, self.rng)
        return y
