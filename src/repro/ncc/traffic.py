"""Traffic-evolution workload: the paper's motivation, made executable.

From the introduction: "The global trend observed is the introduction
of new data services while mobile communication prior service was
voice.  In a few years, voice traffic should represent less than 20 %
of the global traffic.  New data applications were first text data
(SMS) and are/will be slowly replaced by video data.  Thus the required
bandwidth ... increases rapidly."

:class:`TrafficModel` generates that service-mix evolution over a
satellite's mission years; :class:`MissionPlanner` turns it into the
reconfiguration schedule a software-radio payload would execute (and an
ASIC payload could not) -- used by the mission-lifetime example and the
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ServiceMix", "TrafficModel", "MissionPlanner", "PlannedChange"]


@dataclass(frozen=True)
class ServiceMix:
    """Traffic composition at one mission epoch (fractions sum to 1)."""

    year: float
    voice: float
    text: float
    video: float
    total_mbps: float

    def __post_init__(self) -> None:
        # eager validation: a bad mix must fail where it is built, not
        # deep inside a planner or admission controller that trusted it
        for name in ("voice", "text", "video"):
            f = getattr(self, name)
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"{name} fraction must be in [0, 1], got {f}")
        s = self.voice + self.text + self.video
        if not np.isclose(s, 1.0, atol=1e-6):
            raise ValueError(f"service fractions must sum to 1, got {s}")
        if self.total_mbps < 0:
            raise ValueError(f"total_mbps must be >= 0, got {self.total_mbps}")
        if self.year < 0:
            raise ValueError(f"year must be >= 0, got {self.year}")


class TrafficModel:
    """Deterministic service-mix evolution over mission years.

    Voice decays logistically toward a floor (the paper: "< 20 %" after
    a few years -- default floor 10 %), text peaks early then yields to
    video, and total demand grows exponentially.
    """

    def __init__(
        self,
        launch_total_mbps: float = 2.0,
        growth_per_year: float = 0.45,
        voice_initial: float = 0.8,
        voice_floor: float = 0.10,
        voice_decay_years: float = 3.0,
    ) -> None:
        if launch_total_mbps <= 0 or growth_per_year < 0:
            raise ValueError("invalid demand parameters")
        if not 0 <= voice_floor < voice_initial <= 1:
            raise ValueError("invalid voice fractions")
        self.launch_total = launch_total_mbps
        self.growth = growth_per_year
        self.v0 = voice_initial
        self.vf = voice_floor
        self.tau = voice_decay_years

    def mix_at(self, year: float) -> ServiceMix:
        """Service mix at a mission year."""
        if year < 0:
            raise ValueError("year must be >= 0")
        voice = self.vf + (self.v0 - self.vf) * float(np.exp(-year / self.tau))
        data = 1.0 - voice
        # text share of data peaks early, video takes over
        text_share = float(np.exp(-year / 2.5))
        text = data * text_share
        video = data * (1.0 - text_share)
        total = self.launch_total * float((1.0 + self.growth) ** year)
        return ServiceMix(year=year, voice=voice, text=text, video=video, total_mbps=total)

    def years_until_voice_below(self, fraction: float) -> float:
        """Mission year when voice drops under ``fraction`` of traffic.

        A fraction the launch mix is *already* below answers 0.0 (the
        condition holds from year zero); only a fraction at or below
        the asymptotic floor -- which the decay never reaches -- is an
        error.
        """
        if fraction >= self.v0:
            return 0.0
        if fraction <= self.vf:
            raise ValueError(
                f"voice never drops below its floor ({self.vf}); "
                f"asked for {fraction}"
            )
        return float(-self.tau * np.log((fraction - self.vf) / (self.v0 - self.vf)))


@dataclass(frozen=True)
class PlannedChange:
    """One reconfiguration the mission plan calls for."""

    year: float
    equipment: str
    function: str
    reason: str


class MissionPlanner:
    """Derives the reconfiguration schedule from the traffic forecast.

    Two paper-driven rules:

    - when per-user demand exceeds the CDMA mode's ceiling (384 kbps),
      re-point the waveform to TDMA (§2.3's access-scheme change);
    - as total demand (and therefore operating Eb/N0 per bit) tightens,
      step the decoder personality up: none -> convolutional -> turbo
      (§2.3's coding change).
    """

    CDMA_CEILING_MBPS = 0.384

    def __init__(self, model: TrafficModel, mission_years: float = 15.0) -> None:
        if mission_years <= 0:
            raise ValueError("mission_years must be positive")
        self.model = model
        self.mission_years = mission_years

    #: peak-to-mean factor of a busy user's rate demand
    PEAK_FACTOR = 10.0

    def per_user_demand(self, year: float, users: int = 100) -> float:
        """Peak per-user rate demanded (Mbps), video-weighted."""
        if users < 1:
            raise ValueError("users must be >= 1")
        mix = self.model.mix_at(year)
        # video traffic dominates the per-user peak requirement
        weight = 0.2 + 0.8 * mix.video
        return mix.total_mbps * weight * self.PEAK_FACTOR / users

    def schedule(self, users: int = 100) -> list[PlannedChange]:
        """The mission's reconfiguration plan (yearly granularity).

        Epochs are the whole mission years plus, for a fractional
        mission length (say 7.5 years), the end-of-mission boundary
        itself -- a demand threshold crossed in the final half year
        used to be silently missed.
        """
        epochs = [float(y) for y in range(int(self.mission_years) + 1)]
        if self.mission_years > epochs[-1]:
            epochs.append(float(self.mission_years))
        changes: list[PlannedChange] = []
        waveform = "modem.cdma"
        decoder = "decod.none"
        for year in epochs:
            demand = self.per_user_demand(year, users)
            mix = self.model.mix_at(year)
            if waveform == "modem.cdma" and demand > self.CDMA_CEILING_MBPS:
                waveform = "modem.tdma"
                changes.append(PlannedChange(
                    float(year), "demod*", "modem.tdma",
                    f"per-user demand {demand:.2f} Mbps exceeds CDMA ceiling",
                ))
            if decoder == "decod.none" and mix.video > 0.25:
                decoder = "decod.conv"
                changes.append(PlannedChange(
                    float(year), "decod0", "decod.conv",
                    f"video at {mix.video:.0%} needs coded QoS",
                ))
            elif decoder == "decod.conv" and mix.video > 0.6:
                decoder = "decod.turbo"
                changes.append(PlannedChange(
                    float(year), "decod0", "decod.turbo",
                    f"video at {mix.video:.0%} needs turbo-grade QoS",
                ))
        return changes
