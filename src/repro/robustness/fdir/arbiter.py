"""The FDIR arbiter: per-carrier autonomous recovery ladder.

When a carrier's health alarm trips (:mod:`.health`), the arbiter walks
a fixed escalation ladder, cheapest action first, giving each rung
``patience`` frames to take effect before climbing:

1. **reacquire** -- rebuild the demodulator's behavioural object
   (:meth:`~repro.core.equipment.ReconfigurableEquipment.refresh_behaviour`),
   flushing loop filters and acquisition state.  Fixes a synchronizer
   wedged by a deep-but-gone transient.
2. **reload** -- re-run the §3.2 reconfiguration sequence for the
   *current* personality through the
   :class:`~repro.core.reconfig.ReconfigurationManager` (library fetch,
   configure, CRC validation, rollback on failure).  Fixes an SEU-
   corrupted configuration the scrubbers have not caught yet.
3. **fallback** -- load a *more robust* personality from the fallback
   map (e.g. ``modem.tdma8 -> modem.tdma`` -> CFO-tolerant
   ``modem.tdma.robust``; ``decod.turbo -> decod.conv``).  Trades
   capacity for margin, the §2.3 reconfigurability argument used
   autonomously.
4. **isolate** -- declare the equipment failed and fail over to the
   cold spare (:class:`~repro.core.redundancy.RedundantEquipment`).
   When the spare is also dead the pair is terminal: the watchdog
   latches safe mode (``load_golden=False``) and the degraded-mode
   policy permanently sheds the carrier.

Two guards keep the ladder honest:

- **permanent faults jump the queue**: an equipment that is not even
  operational (latch-up, burnout) goes straight to *isolate* -- no
  point re-acquiring on a dead device;
- **common-mode veto**: when the
  :meth:`~.health.HealthMonitorBank.common_mode` discriminator
  implicates the channel, per-carrier escalation is frozen (only
  *reacquire* is allowed) and recovery authority passes to the
  degraded-mode policy (:mod:`.degraded`).

The shared decoder gets its own two-rung ladder (reload, then coding
fallback) driven by decoder operability and the carriers' CRC-failure
trackers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.equipment import EquipmentError
from ...obs.probes import probe as _obs_probe
from .health import HealthMonitorBank

__all__ = ["FdirArbiter", "DEFAULT_FALLBACKS", "LADDER"]

#: the rungs, in escalation order
LADDER: Tuple[str, ...] = ("reacquire", "reload", "fallback", "isolate")

#: default robustness-ordered personality fallbacks (most capable ->
#: most robust).  ``modem.tdma.robust`` is the CFO-tolerant variant the
#: scenario traffic world registers; payloads without it simply stop the
#: chain one rung earlier.
DEFAULT_FALLBACKS: Dict[str, str] = {
    "modem.tdma8": "modem.tdma",
    "modem.tdma": "modem.tdma.robust",
    "decod.turbo": "decod.conv",
}


class _CarrierState:
    __slots__ = ("rung", "cooldown", "terminal")

    def __init__(self) -> None:
        self.rung = 0  # next rung to try
        self.cooldown = 0  # frames to wait before acting again
        self.terminal = False


class FdirArbiter:
    """Autonomous traffic-plane recovery for one regenerative payload.

    Parameters
    ----------
    payload:
        The :class:`~repro.core.payload.RegenerativePayload`.  Entries
        in ``payload.demods`` may be plain equipments or
        :class:`~repro.core.redundancy.RedundantEquipment` pairs; only
        pairs support the *isolate* rung.
    bank:
        The :class:`~.health.HealthMonitorBank` fed by the receive
        chain.
    manager:
        The :class:`~repro.core.reconfig.ReconfigurationManager` used
        for the *reload* and *fallback* rungs (defaults to the
        payload's OBC manager; its library must hold the personalities).
    watchdog:
        Optional :class:`~repro.robustness.watchdog.SafeModeWatchdog`;
        terminal double faults are latched on it.
    policy:
        Optional :class:`~.degraded.DegradedModePolicy`; terminal
        carriers are force-shed on it.
    fallbacks:
        Personality fallback map (defaults to :data:`DEFAULT_FALLBACKS`).
    patience:
        Frames granted to each rung before escalating.
    """

    def __init__(
        self,
        payload,
        bank: HealthMonitorBank,
        manager=None,
        watchdog=None,
        policy=None,
        fallbacks: Optional[Dict[str, str]] = None,
        patience: int = 2,
    ) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.payload = payload
        self.bank = bank
        self.manager = manager or payload.obc.manager
        self.watchdog = watchdog if watchdog is not None else payload.obc.watchdog
        self.policy = policy
        self.fallbacks = dict(DEFAULT_FALLBACKS if fallbacks is None else fallbacks)
        self.patience = patience
        self.frame = 0
        self._states: Dict[int, _CarrierState] = {
            k: _CarrierState() for k in range(len(payload.demods))
        }
        self._decoder_rung = 0
        self._decoder_cooldown = 0
        #: chronological (frame, carrier, action, detail) log; carrier
        #: -1 denotes the shared decoder
        self.actions: List[Tuple[int, int, str, str]] = []
        self.recoveries: List[Tuple[int, int]] = []
        self._in_recovery: Dict[int, bool] = {}
        self._probe = _obs_probe("fdir.arbiter")

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _unit_of(eq):
        """The physical unit a reconfiguration service must touch."""
        return getattr(eq, "active", eq)

    def _log(self, carrier: int, action: str, detail: str = "") -> None:
        self.actions.append((self.frame, carrier, action, detail))
        p = self._probe
        if p is not None:
            p.count(f"actions_{action}")
            p.event(
                "fdir.action",
                frame=self.frame,
                carrier=carrier,
                action=action,
                detail=detail,
            )

    def _reload(self, eq, function: str) -> bool:
        """Run the managed reconfiguration sequence; True on success."""
        unit = self._unit_of(eq)
        try:
            report = self.manager.execute(unit, function)
        except Exception as exc:  # ServiceError, EquipmentError, ...
            self._log_failure(eq, function, str(exc))
            return False
        ok = bool(getattr(report, "success", False))
        if ok and hasattr(eq, "record_design"):
            eq.record_design(function)
        if not ok:
            self._log_failure(eq, function, "validation failed")
        return ok

    def _log_failure(self, eq, function: str, detail: str) -> None:
        p = self._probe
        if p is not None:
            p.count("action_failures")
            p.event(
                "fdir.action_failed",
                equipment=getattr(eq, "name", "?"),
                function=function,
                detail=detail,
            )

    # -- the per-frame decision --------------------------------------------
    def step(self, served: Optional[List[int]] = None) -> List[Tuple[int, str]]:
        """Run one arbitration pass; returns ``[(carrier, action), ...]``.

        Call once per frame after all of the frame's bursts have been
        fed to the monitor bank.  ``served`` lists the carriers
        currently carrying traffic (defaults to all); shed carriers are
        neither judged nor recovered.
        """
        self.frame += 1
        served_list = (
            list(served) if served is not None else list(self._states)
        )
        common = self.bank.common_mode(among=served_list)
        p = self._probe
        if p is not None:
            p.gauge("common_mode", 1.0 if common else 0.0)
        performed: List[Tuple[int, str]] = []
        for k in served_list:
            st = self._states[k]
            if st.terminal:
                continue
            mon = self.bank.monitor(k)
            eq = self.payload.demods[k]
            if mon.tripped:
                self._in_recovery[k] = True
            elif self._in_recovery.get(k) and not mon.tripped:
                # alarm cleared after clear_count healthy bursts: recovered
                self._in_recovery[k] = False
                st.rung = 0
                st.cooldown = 0
                self.recoveries.append((self.frame, k))
                if p is not None:
                    p.count("recoveries")
                    p.event("fdir.recovered", frame=self.frame, carrier=k)
                continue
            if not mon.tripped:
                continue
            if st.cooldown > 0:
                st.cooldown -= 1
                continue
            permanent = bool(getattr(eq, "terminal", False)) or not eq.operational
            if common and not permanent:
                # channel fault: freeze the ladder, the degraded-mode
                # policy owns this failure class
                if p is not None:
                    p.count("common_mode_vetoes")
                continue
            if not mon.unhealthy_now and not permanent:
                # most recent burst was fine: give the clear counter a
                # chance instead of escalating on stale state
                continue
            action = self._act(k, eq, st, permanent)
            if action is not None:
                performed.append((k, action))
                st.cooldown = self.patience
                mon.reset_streaks()
        dec = self._step_decoder(served_list, common)
        if dec is not None:
            performed.append((-1, dec))
        return performed

    def _act(self, k: int, eq, st: _CarrierState, permanent: bool) -> Optional[str]:
        if permanent:
            st.rung = LADDER.index("isolate")
        rung = LADDER[min(st.rung, len(LADDER) - 1)]
        design = eq.loaded_design or getattr(eq, "_last_design", None)
        if rung == "reacquire":
            st.rung += 1
            try:
                self._unit_of(eq).refresh_behaviour()
            except EquipmentError as exc:
                self._log(k, "reacquire", f"failed: {exc}")
                return "reacquire"
            self._log(k, "reacquire", design or "")
            return "reacquire"
        if rung == "reload":
            st.rung += 1
            if design is None:
                return None
            self._reload(eq, design)
            self._log(k, "reload", design)
            return "reload"
        if rung == "fallback":
            st.rung += 1
            fb = self.fallbacks.get(design or "")
            if fb is None:
                # no more robust personality: skip to isolate next pass
                return None
            if self._reload(eq, fb):
                self._log(k, "fallback", f"{design}->{fb}")
            return "fallback"
        # isolate
        return self._isolate(k, eq, st)

    def _isolate(self, k: int, eq, st: _CarrierState) -> Optional[str]:
        if not hasattr(eq, "failover"):
            # no redundant pair behind this carrier: latch safe mode and
            # shed the carrier -- the payload keeps serving the others
            self._terminal(k, eq, st, reason="isolated without spare")
            return "isolate"
        try:
            unit = eq.active
            if not eq.unit_failed(unit):
                eq.mark_unit_failed(unit)
            spare = eq.failover()
            self._log(k, "isolate", f"failover->{spare.name}")
            return "isolate"
        except EquipmentError as exc:
            self._terminal(k, eq, st, reason=str(exc))
            return "isolate"

    def _terminal(self, k: int, eq, st: _CarrierState, reason: str) -> None:
        st.terminal = True
        self._log(k, "terminal", reason)
        p = self._probe
        if p is not None:
            p.count("terminal_carriers")
        if self.watchdog is not None:
            self.watchdog.latch(eq.name, reason=reason, load_golden=False)
        if self.policy is not None:
            self.policy.force_shed(k, reason=reason)

    # -- the shared decoder ------------------------------------------------
    def _step_decoder(self, served: List[int], common: bool) -> Optional[str]:
        """Reload or fall back the shared decoder personality.

        Triggers when the decoder equipment is non-operational, or when
        the CRC-failure rate is high on *most served carriers while
        their demodulator metrics are clean* -- the signature that the
        shared decoder (not any one carrier) is the faulty element.
        """
        if self._decoder_cooldown > 0:
            self._decoder_cooldown -= 1
            return None
        dec = self.payload.decoder
        design = dec.loaded_design or getattr(dec, "_last_design", None)
        dead = not dec.operational
        crc_sick = False
        if not dead and served:
            th = self.bank.thresholds
            sick = 0
            voters = 0
            for k in served:
                m = self.bank.monitor(k)
                if m.crc.total < th.trip_count:
                    continue
                voters += 1
                if (
                    m.crc.rate > th.crc_fail_rate_max
                    and m.last is not None
                    and m.last.healthy
                ):
                    sick += 1
            crc_sick = voters > 0 and sick == voters and voters >= min(
                2, len(served)
            )
        if not dead and not crc_sick:
            self._decoder_rung = 0
            return None
        if design is None:
            return None
        self._decoder_cooldown = self.patience
        if self._decoder_rung == 0 or dead:
            self._decoder_rung = 1
            self._reload(dec, design)
            self._log(-1, "decoder_reload", design)
            for k in served:
                self.bank.monitor(k).crc.reset()
            return "decoder_reload"
        fb = self.fallbacks.get(design)
        if fb is None:
            return None
        if self._reload(dec, fb):
            self._log(-1, "decoder_fallback", f"{design}->{fb}")
            for k in served:
                self.bank.monitor(k).crc.reset()
        return "decoder_fallback"
