"""Cold-spare redundancy: a primary/spare pair as one equipment.

Spacecraft practice for the §4.2 failure modes the paper calls
"more difficult to recover from or impossible" (latch-up, burnout):
critical equipments fly with a cold spare.  Because the paper's
equipments are *software-defined*, the spare is generic -- failover is
just loading the active personality onto the spare device, which is
exactly the flexibility argument of the conclusion.

:class:`RedundantEquipment` pairs a primary and a spare
:class:`~repro.core.equipment.ReconfigurableEquipment`.  It decides
nothing on its own: the automatic failover is the FDIR arbiter's
isolate rung (:mod:`repro.robustness.fdir.arbiter`), which marks the
failed unit, calls :meth:`RedundantEquipment.failover` and, when no
healthy standby remains, latches the watchdog into terminal safe mode.
"""

from __future__ import annotations

from typing import Optional

from .equipment import EquipmentError, ReconfigurableEquipment

__all__ = ["RedundantEquipment"]


class RedundantEquipment:
    """A primary/spare pair presenting one logical equipment.

    The spare is *cold*: unpowered and unconfigured until a failover.
    ``behaviour()`` delegates to whichever unit is active.

    When *both* units have permanently failed the pair becomes
    **terminal**: ``operational`` is ``False``, ``behaviour()`` raises
    :class:`EquipmentError` instead of delegating to a dead unit, and
    the failover that discovered the condition raises it so the caller
    (the FDIR arbiter) can latch watchdog safe mode.
    """

    def __init__(
        self,
        primary: ReconfigurableEquipment,
        spare: ReconfigurableEquipment,
    ) -> None:
        if primary.expected_kind != spare.expected_kind:
            raise ValueError("primary and spare must host the same slot kind")
        self.primary = primary
        self.spare = spare
        self.active = primary
        self.failovers = 0
        #: both units permanently failed -- the logical equipment is gone
        self.terminal = False
        self._failed_units: set[str] = set()
        self._last_design: Optional[str] = None

    @property
    def name(self) -> str:
        return self.primary.name

    @property
    def loaded_design(self) -> Optional[str]:
        return self.active.loaded_design

    @property
    def operational(self) -> bool:
        if self.terminal:
            return False
        return self.active.operational

    def behaviour(self):
        """The live behavioural model of the active unit.

        Raises :class:`EquipmentError` once the pair is terminal: a
        double fault must surface as an error/telemetry event, never as
        silent delegation to a dead unit.
        """
        if self.terminal:
            raise EquipmentError(f"{self.name}: terminal (both units failed)")
        return self.active.behaviour()

    def load(self, design_name: str) -> None:
        """Load a design on the active unit (spare stays cold)."""
        self.active.load(design_name)
        self._last_design = design_name

    def record_design(self, design_name: str) -> None:
        """Note a personality loaded on the active unit by an external
        service (e.g. the §3.2 reconfiguration manager driving the unit
        directly), so a later failover carries it to the standby."""
        self._last_design = design_name

    def mark_unit_failed(self, unit: ReconfigurableEquipment) -> None:
        """Record a permanent failure (latch-up/burnout) of one unit."""
        self._failed_units.add(unit.name)
        unit.unload()

    def unit_failed(self, unit: ReconfigurableEquipment) -> bool:
        return unit.name in self._failed_units

    def failover(self) -> ReconfigurableEquipment:
        """Switch to the other unit, carrying the personality across.

        Raises :class:`EquipmentError` when no healthy standby remains.
        """
        standby = self.spare if self.active is self.primary else self.primary
        if self.unit_failed(standby):
            # terminal only when the active side is also gone -- a
            # commanded failover away from a *healthy* active unit onto a
            # dead spare is refused, not a double fault
            if self.unit_failed(self.active) or not self.active.operational:
                self.terminal = True
            raise EquipmentError(
                f"{self.name}: no healthy standby (both units failed)"
            )
        # a destroyed unit may already be unloaded: carry the last design
        design = self.active.loaded_design or self._last_design
        if design is None:
            raise EquipmentError(f"{self.name}: no design to carry over")
        standby.load(design)
        self.active.unload()
        self.active = standby
        self.failovers += 1
        return standby
