"""On-board watchdog and safe-mode state machine.

The paper's §3 recovery story (validation auto-test + rollback +
on-board bitstream library) covers *one* failed reconfiguration.  A
payload that keeps failing -- corrupted uploads, SEU storms during
load, repeated rollback -- needs an autonomous escalation path, or the
satellite ends up stranded waiting for ground intervention on a link
that may itself be the problem.

:class:`SafeModeWatchdog` implements spacecraft practice: it tracks
*consecutive* failed validations/rollbacks per equipment and, once a
threshold is crossed, autonomously loads a designated **golden image**
from the on-board :class:`~repro.core.bitstore.BitstreamLibrary`
(falling back to a registry render when the library copy is missing or
corrupted) and latches the equipment into **safe mode**.  Safe-mode
entry is reported in telemetry and counted on the ``core.watchdog``
observability probe.

State machine (per equipment, and aggregated for the payload)::

    NOMINAL --failure--> DEGRADED --N-th consecutive failure--> SAFE_MODE
       ^                     |                                    |
       +-----success---------+          ground-commanded successful
       ^                                reconfigure clears the latch
       +--------------------------------------------------------+

The watchdog polls nothing itself; two sources feed it.  The on-board
controller reports validated reconfiguration outcomes, and the FDIR
arbiter (:mod:`repro.robustness.fdir.arbiter`) latches it
(:meth:`SafeModeWatchdog.latch`) when a carrier's equipment is beyond
recovery.  The arbiter's isolate rung is the one failover authority;
nothing else polls equipment health.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.probes import probe as _obs_probe

__all__ = ["SafeModeWatchdog", "NOMINAL", "DEGRADED", "SAFE_MODE"]

#: Per-equipment (and payload-wide) watchdog states.
NOMINAL = "nominal"
DEGRADED = "degraded"
SAFE_MODE = "safe-mode"


class SafeModeWatchdog:
    """Consecutive-failure watchdog with autonomous golden-image recovery.

    Parameters
    ----------
    controller:
        The :class:`~repro.core.obc.OnBoardController` (duck-typed: the
        watchdog only uses ``controller.equipments`` and
        ``controller.library``).
    golden:
        Map of equipment name -> golden function name.  The golden image
        is the known-good personality the equipment boots into when the
        watchdog fires (e.g. the launch configuration).
    threshold:
        Number of *consecutive* failures that trips safe mode.
    """

    def __init__(self, controller, golden: Dict[str, str], threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.controller = controller
        self.golden = dict(golden)
        self.threshold = threshold
        #: consecutive-failure streak per equipment
        self.failures: Dict[str, int] = {}
        #: equipments currently latched in safe mode -> entry info dict
        self.safe_mode: Dict[str, dict] = {}
        #: chronological log of every safe-mode entry
        self.entries: list[dict] = []
        self._probe = _obs_probe("core.watchdog")

    # -- state inspection --------------------------------------------------
    @property
    def state(self) -> str:
        """Aggregated payload state (worst equipment wins)."""
        if self.safe_mode:
            return SAFE_MODE
        if any(self.failures.values()):
            return DEGRADED
        return NOMINAL

    def state_of(self, equipment_name: str) -> str:
        """The watchdog state of one equipment."""
        if equipment_name in self.safe_mode:
            return SAFE_MODE
        if self.failures.get(equipment_name, 0) > 0:
            return DEGRADED
        return NOMINAL

    def status(self) -> dict:
        """Telemetry-ready summary (goes into the ``status`` TC reply)."""
        return {
            "state": self.state,
            "threshold": self.threshold,
            "failures": {k: v for k, v in sorted(self.failures.items()) if v},
            "safe_mode": sorted(self.safe_mode),
            "entries": len(self.entries),
        }

    # -- event sinks -------------------------------------------------------
    def record_success(self, equipment_name: str) -> None:
        """A validated reconfiguration succeeded: clear streak and latch.

        A ground-commanded reconfiguration that passes validation is the
        canonical safe-mode *exit* -- the payload is demonstrably healthy
        on a fresh image.
        """
        self.failures[equipment_name] = 0
        if self.safe_mode.pop(equipment_name, None) is not None:
            p = self._probe
            if p is not None:
                p.count("safe_mode_exits")
                p.event("watchdog.safe_mode_exit", equipment=equipment_name)

    def record_failure(self, equipment_name: str) -> Optional[dict]:
        """A validation/rollback failed; may trip safe mode.

        Returns the safe-mode entry info dict when this failure crossed
        the threshold, else ``None``.
        """
        n = self.failures.get(equipment_name, 0) + 1
        self.failures[equipment_name] = n
        p = self._probe
        if p is not None:
            p.count("failures_observed")
        if n >= self.threshold and equipment_name not in self.safe_mode:
            return self._enter_safe_mode(
                equipment_name, reason=f"{n} consecutive failures"
            )
        return None

    # -- the escalation ----------------------------------------------------
    def latch(
        self, equipment_name: str, reason: str, load_golden: bool = True
    ) -> dict:
        """Latch one equipment into safe mode from an external authority.

        Used by recovery machinery that has *already* concluded the unit
        is unrecoverable -- the FDIR arbiter's isolate rung, when the
        cold spare is also dead or there is none.  ``load_golden=False`` skips the golden-image load (a
        dead device cannot be reloaded); the entry is then tagged
        ``terminal`` so telemetry and the golden-load invariant can tell a
        "parked on golden" latch from a "hardware is gone" latch.
        """
        if equipment_name in self.safe_mode:
            return self.safe_mode[equipment_name]
        return self._enter_safe_mode(equipment_name, reason, load_golden=load_golden)

    def _enter_safe_mode(
        self, equipment_name: str, reason: str, load_golden: bool = True
    ) -> dict:
        """Load the golden image and latch the equipment into safe mode."""
        golden = self.golden.get(equipment_name)
        eq = self.controller.equipments.get(equipment_name)
        info = {
            "equipment": equipment_name,
            "reason": reason,
            "golden": golden,
            "loaded": False,
            "source": None,
        }
        if not load_golden:
            info["terminal"] = True
            info["error"] = "terminal fault: golden load skipped"
        elif eq is not None and golden is not None:
            # prefer the library copy (§3.2's on-board files library)...
            bitstream = None
            try:
                bitstream = self.controller.library.fetch(golden)
            except Exception:
                bitstream = None
            if bitstream is not None:
                try:
                    eq.load(golden, bitstream)
                    info["loaded"] = True
                    info["source"] = "library"
                except Exception:
                    bitstream = None  # corrupted library copy: fall back
            if bitstream is None:
                # ...fall back to rendering from the design registry
                try:
                    eq.load(golden)
                    info["loaded"] = True
                    info["source"] = "registry"
                except Exception as exc:
                    info["error"] = str(exc)
        elif golden is None:
            info["error"] = "no golden image designated"
        else:
            info["error"] = f"unknown equipment {equipment_name!r}"
        self.safe_mode[equipment_name] = info
        self.failures[equipment_name] = 0
        self.entries.append(info)
        p = self._probe
        if p is not None:
            p.count("safe_mode_entries")
            if info["loaded"]:
                p.count("golden_loads")
            if info.get("terminal"):
                p.count("terminal_latches")
            p.event(
                "watchdog.safe_mode",
                equipment=equipment_name,
                reason=reason,
                golden=golden,
                loaded=info["loaded"],
                source=info["source"],
                terminal=bool(info.get("terminal", False)),
            )
        return info
