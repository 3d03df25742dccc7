"""Per-carrier traffic-plane health monitoring.

The regenerative payload of Fig. 2 demodulates and decodes every
carrier on board, which means the payload *knows* -- per burst -- how
each carrier is doing: the demodulator publishes lock metrics
(:func:`repro.dsp.timing.line_lock`,
:func:`repro.dsp.carrier.carrier_lock_metric`), a blind SNR estimate
(:func:`repro.dsp.modem.estimate_snr_m2m4`) and the unique-word
correlation peak, and the decoder reports CRC outcomes.  A transparent
payload has none of this: traffic-plane FDIR is a capability *specific
to the regenerative architecture* the paper argues for.

This module turns those raw observables into debounced per-carrier
health state:

- :class:`BurstHealth` -- the instantaneous verdict on one burst (used
  to gate delivery: data from an unhealthy burst is never *silently*
  delivered as good);
- :class:`CrcFailureTracker` -- windowed decoder CRC-failure rate;
- :class:`CarrierHealthMonitor` -- per-carrier hysteresis: an alarm
  *trips* after ``trip_count`` consecutive unhealthy bursts and
  *clears* after ``clear_count`` consecutive healthy ones, so a single
  noisy burst neither triggers a recovery ladder nor resets one
  mid-climb (anti-flapping);
- :class:`HealthMonitorBank` -- the per-payload collection, including
  the **common-mode discriminator**: when most carriers degrade at
  once, the cause is the channel (rain fade, gateway HPA), not one
  equipment, and equipment-level isolation must be vetoed.

Everything publishes through ``repro.obs`` probes under the
``fdir.health`` subsystem; with observability off each hot call pays a
single ``None`` check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = [
    "HealthThresholds",
    "BurstHealth",
    "CrcFailureTracker",
    "CarrierHealthMonitor",
    "HealthMonitorBank",
]


@dataclass(frozen=True)
class HealthThresholds:
    """Alarm thresholds for one carrier's health monitor.

    The lock thresholds are calibrated against this package's SRRC
    (beta = 0.35) QPSK burst format: a clean burst at the nominal
    operating point (C/N around 10-12 dB) sits well above them, while a
    blanked, interfered or frequency-shifted burst falls well below.
    """

    #: minimum UW correlation peak (1.0 for a clean burst; a noise-only
    #: slot peaks near 0.6 after the argmax search, a clean burst at the
    #: C/N floor of interest stays above 0.73)
    uw_min: float = 0.65
    #: minimum symbol-rate spectral-line strength (Oerder&Meyr |C1|/C0;
    #: small in absolute terms for SRRC beta=0.35 through the
    #: channelizer -- about 0.03 clean, 0.015 for noise)
    timing_lock_min: float = 0.01
    #: minimum M-power phase coherence of the payload symbols (about
    #: 0.7 at C/N 12 dB, 0.5 at 8 dB, 0.16 for noise)
    carrier_lock_min: float = 0.25
    #: minimum blind (M2M4) SNR estimate [dB]
    snr_min_db: float = 2.0
    #: CRC window length (bursts) and maximum failure rate within it
    crc_window: int = 8
    crc_fail_rate_max: float = 0.5
    #: consecutive unhealthy bursts before the alarm trips
    trip_count: int = 3
    #: consecutive healthy bursts before the alarm clears
    clear_count: int = 3

    def __post_init__(self) -> None:
        if self.trip_count < 1 or self.clear_count < 1:
            raise ValueError("trip/clear counts must be >= 1")
        if self.crc_window < 1:
            raise ValueError("crc_window must be >= 1")


@dataclass(frozen=True)
class BurstHealth:
    """Instantaneous verdict on one received burst."""

    healthy: bool
    reasons: Tuple[str, ...] = ()
    uw_metric: Optional[float] = None
    timing_lock: Optional[float] = None
    carrier_lock: Optional[float] = None
    snr_db: Optional[float] = None


class CrcFailureTracker:
    """Windowed decoder CRC-failure-rate tracker for one carrier."""

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._outcomes: deque = deque(maxlen=window)
        self.total = 0
        self.failures = 0

    def record(self, crc_ok: bool) -> None:
        self._outcomes.append(bool(crc_ok))
        self.total += 1
        if not crc_ok:
            self.failures += 1

    @property
    def rate(self) -> float:
        """Failure rate over the current window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def reset(self) -> None:
        self._outcomes.clear()


class CarrierHealthMonitor:
    """Debounced health state of one carrier's demod/decode chain.

    Feed it one :meth:`observe_burst` per received burst (the diag dict
    the payload's ``process_uplink`` produces) and one
    :meth:`observe_decode` per decoded transport block.  ``tripped``
    goes up after ``trip_count`` consecutive unhealthy bursts and down
    after ``clear_count`` consecutive healthy ones.
    """

    def __init__(
        self, carrier: int, thresholds: Optional[HealthThresholds] = None
    ) -> None:
        self.carrier = int(carrier)
        self.thresholds = thresholds or HealthThresholds()
        self.crc = CrcFailureTracker(self.thresholds.crc_window)
        self.tripped = False
        self.bursts = 0
        self.unhealthy_bursts = 0
        self.trips = 0
        self.clears = 0
        self._bad_streak = 0
        self._good_streak = 0
        self.last: Optional[BurstHealth] = None
        self._probe = _obs_probe("fdir.health", carrier=self.carrier)

    # -- observation sinks -------------------------------------------------
    def observe_burst(self, diag: dict) -> BurstHealth:
        """Judge one burst from its receive diagnostics."""
        th = self.thresholds
        reasons = []
        if "sync_failed" in diag:
            reasons.append("sync_failed")
        if "equipment_failed" in diag:
            reasons.append("equipment_failed")
        uw = diag.get("uw_metric")
        tl = diag.get("timing_lock")
        cl = diag.get("carrier_lock")
        snr = diag.get("snr_db")
        if not reasons:
            if uw is not None and uw < th.uw_min:
                reasons.append("uw_low")
            if tl is not None and tl < th.timing_lock_min:
                reasons.append("timing_unlock")
            if cl is not None and cl < th.carrier_lock_min:
                reasons.append("carrier_unlock")
            if snr is not None and snr < th.snr_min_db:
                reasons.append("snr_low")
        verdict = BurstHealth(
            healthy=not reasons,
            reasons=tuple(reasons),
            uw_metric=uw,
            timing_lock=tl,
            carrier_lock=cl,
            snr_db=snr,
        )
        self._account(verdict)
        return verdict

    def observe_decode(self, crc_ok: bool) -> None:
        """Record one decoder CRC outcome.

        A CRC-failure-rate excursion above ``crc_fail_rate_max`` counts
        as an unhealthy observation even when the demodulator metrics
        look clean -- the signature of a decoder-side fault (SEU in the
        decoder fabric, personality mismatch).
        """
        self.crc.record(crc_ok)
        p = self._probe
        if p is not None:
            p.count("crc_checks")
            if not crc_ok:
                p.count("crc_failures")
        window_full = len(self.crc._outcomes) >= min(
            self.crc.window, self.thresholds.trip_count
        )
        if (
            window_full
            and self.crc.rate > self.thresholds.crc_fail_rate_max
            and self.last is not None
            and self.last.healthy
        ):
            # decoder-side degradation: demod metrics fine, CRCs failing
            self._account(
                BurstHealth(healthy=False, reasons=("crc_rate",)), burst=False
            )

    # -- state -------------------------------------------------------------
    def _account(self, verdict: BurstHealth, burst: bool = True) -> None:
        if burst:
            self.bursts += 1
            self.last = verdict
        p = self._probe
        if p is not None and burst:
            p.count("bursts")
            if verdict.snr_db is not None:
                p.gauge("snr_db", verdict.snr_db)
            if verdict.carrier_lock is not None:
                p.gauge("carrier_lock", verdict.carrier_lock)
            if verdict.timing_lock is not None:
                p.gauge("timing_lock", verdict.timing_lock)
        if verdict.healthy:
            self._good_streak += 1
            self._bad_streak = 0
            if self.tripped and self._good_streak >= self.thresholds.clear_count:
                self.tripped = False
                self.clears += 1
                if p is not None:
                    p.count("clears")
                    p.event("fdir.clear", carrier=self.carrier)
        else:
            self.unhealthy_bursts += 1
            self._bad_streak += 1
            self._good_streak = 0
            if p is not None:
                p.count("unhealthy_bursts")
            if not self.tripped and self._bad_streak >= self.thresholds.trip_count:
                self.tripped = True
                self.trips += 1
                if p is not None:
                    p.count("trips")
                    p.event(
                        "fdir.trip",
                        carrier=self.carrier,
                        reasons=",".join(verdict.reasons),
                    )

    @property
    def unhealthy_now(self) -> bool:
        """Instantaneous verdict of the most recent burst."""
        return self.last is not None and not self.last.healthy

    def reset_streaks(self) -> None:
        """Forget streak state (after a recovery action restarts the chain)."""
        self._bad_streak = 0
        self._good_streak = 0
        self.crc.reset()


class HealthMonitorBank:
    """All per-carrier monitors of one payload, plus common-mode logic."""

    def __init__(
        self,
        num_carriers: int,
        thresholds: Optional[HealthThresholds] = None,
        common_mode_fraction: float = 0.66,
    ) -> None:
        if num_carriers < 1:
            raise ValueError("need at least one carrier")
        if not 0.0 < common_mode_fraction <= 1.0:
            raise ValueError("common_mode_fraction must be in (0, 1]")
        self.thresholds = thresholds or HealthThresholds()
        self.common_mode_fraction = common_mode_fraction
        self.monitors: Dict[int, CarrierHealthMonitor] = {
            k: CarrierHealthMonitor(k, self.thresholds)
            for k in range(num_carriers)
        }

    def monitor(self, carrier: int) -> CarrierHealthMonitor:
        return self.monitors[carrier]

    def observe_burst(self, carrier: int, diag: dict) -> BurstHealth:
        return self.monitors[carrier].observe_burst(diag)

    def observe_decode(self, carrier: int, crc_ok: bool) -> None:
        self.monitors[carrier].observe_decode(crc_ok)

    def tripped_carriers(self) -> list[int]:
        return sorted(k for k, m in self.monitors.items() if m.tripped)

    def common_mode(self, among: Optional[Iterable[int]] = None) -> bool:
        """Do enough carriers degrade at once to implicate the channel?

        Checks the *instantaneous* verdicts (not the debounced alarms)
        so a payload-wide fade registers as common-mode before any
        individual alarm trips.  ``among`` restricts the vote to the
        currently-served carriers (shed carriers carry no signal and
        would otherwise always vote "unhealthy").
        """
        keys = list(among) if among is not None else list(self.monitors)
        if len(keys) < 2:
            return False
        bad = sum(1 for k in keys if self.monitors[k].unhealthy_now)
        return bad / len(keys) >= self.common_mode_fraction
