"""On-board processor controller (paper §3.1).

"When complex payloads are used (i.e. regenerative), a specific
controller is implemented, called on-board processor controller.  This
equipment is able to exchange with the controller on the platform and
also to address each equipment separately. ... It is thus well suited
to the management on-board the satellite of a reconfiguration process."

:class:`OnBoardController` dispatches telecommands to equipments and
services and produces telemetry; the platform controller (Fig. 1)
relays TC/TM between the space link and the OBC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..robustness.watchdog import SafeModeWatchdog
from .bitstore import BitstreamLibrary
from .equipment import ReconfigurableEquipment
from .reconfig import ReconfigurationManager

__all__ = ["Telecommand", "Telemetry", "OnBoardController"]


@dataclass(frozen=True)
class Telecommand:
    """A command addressed to the payload.

    ``action`` is one of ``reconfigure``, ``validate``, ``status``,
    ``store``, ``evict``; ``args`` carries action parameters.
    """

    tc_id: int
    action: str
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Telemetry:
    """The response frame sent back through the TM channel."""

    tc_id: int
    success: bool
    payload: dict = field(default_factory=dict)


class OnBoardController:
    """Equipment addressing + telecommand execution."""

    def __init__(self, library: Optional[BitstreamLibrary] = None) -> None:
        self.library = library or BitstreamLibrary()
        self.manager = ReconfigurationManager(self.library)
        self.equipments: Dict[str, ReconfigurableEquipment] = {}
        self.tm_log: list[Telemetry] = []
        #: optional safe-mode watchdog (see :meth:`arm_watchdog`)
        self.watchdog: Optional[SafeModeWatchdog] = None

    def arm_watchdog(
        self, golden: Dict[str, str], threshold: int = 3
    ) -> SafeModeWatchdog:
        """Arm the safe-mode watchdog with per-equipment golden images.

        After ``threshold`` consecutive failed validations/rollbacks on
        one equipment, the OBC autonomously loads that equipment's
        golden function (library copy preferred, registry render as
        fallback) and latches it into safe mode; the state is reported
        in ``reconfigure``/``validate``/``status`` telemetry.
        """
        self.watchdog = SafeModeWatchdog(self, golden, threshold=threshold)
        return self.watchdog

    def register_equipment(self, eq: ReconfigurableEquipment) -> None:
        if eq.name in self.equipments:
            raise ValueError(f"equipment {eq.name!r} already registered")
        self.equipments[eq.name] = eq

    def equipment(self, name: str) -> ReconfigurableEquipment:
        if name not in self.equipments:
            raise KeyError(f"no equipment {name!r}")
        return self.equipments[name]

    # -- TC execution ------------------------------------------------------
    def execute(self, tc: Telecommand) -> Telemetry:
        """Execute one telecommand; always returns telemetry."""
        try:
            handler = getattr(self, f"_tc_{tc.action}", None)
            if handler is None:
                tm = Telemetry(tc.tc_id, False, {"error": f"unknown action {tc.action!r}"})
            else:
                tm = handler(tc)
        except Exception as exc:
            tm = Telemetry(tc.tc_id, False, {"error": str(exc)})
        self.tm_log.append(tm)
        return tm

    def _watchdog_note(self, eq: ReconfigurableEquipment, success: bool) -> dict:
        """Feed one validation outcome to the watchdog; telemetry fields."""
        wd = self.watchdog
        if wd is None:
            return {"safe_mode": False}
        if success:
            wd.record_success(eq.name)
        else:
            wd.record_failure(eq.name)
        return {
            "safe_mode": eq.name in wd.safe_mode,
            "watchdog_state": wd.state_of(eq.name),
        }

    def _tc_reconfigure(self, tc: Telecommand) -> Telemetry:
        eq = self.equipment(tc.args["equipment"])
        report = self.manager.execute(
            eq, tc.args["function"], tc.args.get("version")
        )
        payload = {
            "summary": report.summary(),
            "crc": report.crc_telemetry,
            "outage_s": report.outage_seconds,
            "rolled_back": report.rolled_back,
            "final_function": report.final_function,
        }
        payload.update(self._watchdog_note(eq, report.success))
        # a safe-mode entry may have re-loaded the equipment: report
        # the personality it actually carries now
        payload["final_function"] = eq.loaded_design
        return Telemetry(tc.tc_id, report.success, payload)

    def _tc_validate(self, tc: Telecommand) -> Telemetry:
        eq = self.equipment(tc.args["equipment"])
        if eq.loaded_design is None:
            return Telemetry(tc.tc_id, False, {"error": "no design loaded"})
        expected = self.library.fetch(eq.loaded_design)
        passed, steps = self.manager.validation.execute(eq, expected)
        payload = {"crc": eq.fpga.config_crc32(), "detail": steps[-1].detail}
        payload.update(self._watchdog_note(eq, passed))
        return Telemetry(tc.tc_id, passed, payload)

    def _tc_status(self, tc: Telecommand) -> Telemetry:
        report = {
            name: {
                "design": eq.loaded_design,
                "power": eq.fpga.power.value,
                "operational": eq.operational,
                "corrupted_bits": (
                    eq.fpga.corrupted_bits() if eq.loaded_design else None
                ),
            }
            for name, eq in self.equipments.items()
        }
        report["library"] = self.library.catalogue()
        if self.watchdog is not None:
            report["watchdog"] = self.watchdog.status()
        return Telemetry(tc.tc_id, True, report)

    def _tc_store(self, tc: Telecommand) -> Telemetry:
        """Register an uploaded file into the bitstream library."""
        name = self.library.store_raw(
            tc.args["function"], tc.args["version"], tc.args["data"]
        )
        return Telemetry(tc.tc_id, True, {"stored": name})

    def _tc_evict(self, tc: Telecommand) -> Telemetry:
        self.library.evict(tc.args["function"], tc.args["version"])
        return Telemetry(tc.tc_id, True, {})

    # -- store-and-forward recorder ----------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Register the onboard solid-state recorder.

        ``recorder`` is a
        :class:`repro.robustness.dtn.SolidStateRecorder`; the
        ``playback`` telecommand then lets the ground grant playback
        budgets at the start of a pass (store-and-forward: nothing
        recorded is released into an outage without authorization).
        """
        self.recorder = recorder

    def _tc_playback(self, tc: Telecommand) -> Telemetry:
        """Ground-driven playback authorization for the recorder."""
        recorder = getattr(self, "recorder", None)
        if recorder is None:
            return Telemetry(tc.tc_id, False, {"error": "no recorder attached"})
        pending = recorder.pending()
        # deficit grant: top the outstanding authorization up to the
        # backlog, never past it -- repeated polls cannot over-authorize
        # and leak stored records into a later outage
        deficit = max(0, pending - recorder.authorized)
        budget = tc.args.get("budget")
        granted = deficit if budget is None else min(int(budget), deficit)
        if granted > 0:
            recorder.authorize(granted)
        return Telemetry(
            tc.tc_id,
            True,
            {"granted": granted, **recorder.status()},
        )
