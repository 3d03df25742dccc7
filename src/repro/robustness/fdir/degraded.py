"""Link-budget-driven degraded modes: carrier shedding and restoration.

The regenerative payload's gateway multiplex shares one HPA across the
MF-TDMA carriers (:func:`repro.core.linkbudget.shared_uplink_cn`), so
under a deep fade the payload has a real choice the transparent payload
does not: **shed the lowest-priority carriers and concentrate the
remaining power**, keeping the survivors above the BER target instead
of letting every carrier drown together.

:class:`DegradedModePolicy` makes that call each frame from the
regenerative margin (:func:`repro.core.linkbudget.regenerative_margin_db`):

- *shed* while ``margin < shed_margin_db`` and more than ``min_active``
  carriers remain, releasing the shed carrier's MF-TDMA slots
  (:class:`repro.dsp.tdma.FramePlan`) and parking them for later;
- *restore* the highest-priority parked carrier only when the margin
  **projected after restoration** (power re-diluted across one more
  carrier) clears ``restore_margin_db``.

``restore_margin_db > shed_margin_db`` creates the hysteresis band that
prevents shed/restore flapping on a fluttering fade.  A carrier lost to
hardware (:meth:`force_shed`, called by the FDIR arbiter on terminal
double faults) is excluded from restoration and its terminals are
re-planned onto free slots of the surviving carriers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.linkbudget import regenerative_margin_db
from ...dsp.tdma import FramePlan, SlotAssignment
from ...obs.probes import probe as _obs_probe

__all__ = ["DegradedModePolicy"]


def _lin_to_db(x: float) -> float:
    import numpy as np

    return 10.0 * float(np.log10(x))


class DegradedModePolicy:
    """Priority-ordered carrier shedding against a BER target.

    Parameters
    ----------
    plan:
        The MF-TDMA frame plan whose assignments are released/restored.
    num_carriers:
        Carriers in the multiplex (must match the plan).
    down_cn_db:
        Downlink C/N (regenerative hops are independent, §2.1).
    required_ber:
        End-to-end BER target the margin is computed against.
    shed_margin_db / restore_margin_db:
        Hysteresis band: shed below the former, restore only when the
        *projected* post-restore margin clears the latter.
    priorities:
        Carriers in shed order (first element shed first).  Defaults to
        highest index first, i.e. carrier 0 is the most protected.
    min_active:
        Never shed below this many carriers.
    """

    def __init__(
        self,
        plan: FramePlan,
        num_carriers: Optional[int] = None,
        down_cn_db: float = 16.0,
        required_ber: float = 1e-4,
        shed_margin_db: float = 0.0,
        restore_margin_db: float = 2.0,
        priorities: Optional[List[int]] = None,
        min_active: int = 1,
    ) -> None:
        n = num_carriers if num_carriers is not None else plan.num_carriers
        if n < 1:
            raise ValueError("need at least one carrier")
        if restore_margin_db < shed_margin_db:
            raise ValueError(
                "restore_margin_db must be >= shed_margin_db (hysteresis)"
            )
        if not 1 <= min_active <= n:
            raise ValueError("min_active out of range")
        self.plan = plan
        self.num_carriers = n
        self.down_cn_db = down_cn_db
        self.required_ber = required_ber
        self.shed_margin_db = shed_margin_db
        self.restore_margin_db = restore_margin_db
        self.priorities = list(priorities) if priorities else list(range(n - 1, -1, -1))
        if sorted(self.priorities) != list(range(n)):
            raise ValueError("priorities must be a permutation of the carriers")
        self.min_active = min_active
        self.active: set[int] = set(range(n))
        #: carrier -> parked assignments awaiting restoration
        self.parked: Dict[int, List[SlotAssignment]] = {}
        #: carriers permanently lost to hardware (never restored)
        self.terminal: set[int] = set()
        #: chronological (kind, carrier, margin_db) event log
        self.events: List[Tuple[str, int, float]] = []
        self.last_margin_db: Optional[float] = None
        self._probe = _obs_probe("fdir.degraded")

    # -- inspection --------------------------------------------------------
    @property
    def active_carriers(self) -> List[int]:
        return sorted(self.active)

    def transitions_of(self, carrier: int) -> int:
        """Shed+restore event count for one carrier (flap detection)."""
        return sum(1 for kind, k, _ in self.events if k == carrier)

    # -- margin arithmetic -------------------------------------------------
    def margin_db(self, per_carrier_cn_db: float) -> float:
        """Regenerative uplink margin at the given per-carrier C/N."""
        return regenerative_margin_db(
            per_carrier_cn_db, self.down_cn_db, self.required_ber
        )

    # -- the per-frame decision --------------------------------------------
    def update(self, per_carrier_cn_db: float) -> List[Tuple[str, int]]:
        """Shed/restore against the current per-carrier uplink C/N.

        ``per_carrier_cn_db`` is the C/N each *currently active* carrier
        sees (fade and power concentration already applied -- the
        quantity the health monitors' SNR estimators track).  Returns
        the actions taken as ``[("shed"|"restore", carrier), ...]``.
        """
        actions: List[Tuple[str, int]] = []
        cn = float(per_carrier_cn_db)
        margin = self.margin_db(cn)
        self.last_margin_db = margin
        p = self._probe
        if p is not None:
            p.gauge("margin_db", margin)
            p.gauge("active_carriers", len(self.active))
        # shed while below the floor
        while margin < self.shed_margin_db and len(self.active) > self.min_active:
            victim = self._next_victim()
            if victim is None:
                break
            self._shed(victim, margin)
            actions.append(("shed", victim))
            # concentrating power over one fewer carrier
            cn += _lin_to_db((len(self.active) + 1) / len(self.active))
            margin = self.margin_db(cn)
            self.last_margin_db = margin
        # restore while the projected post-restore margin clears the band
        while True:
            candidate = self._next_restore()
            if candidate is None:
                break
            projected_cn = cn + _lin_to_db(
                len(self.active) / (len(self.active) + 1)
            )
            projected = self.margin_db(projected_cn)
            if projected < self.restore_margin_db:
                break
            self._restore(candidate, projected)
            actions.append(("restore", candidate))
            cn = projected_cn
            margin = projected
            self.last_margin_db = margin
        return actions

    # -- mechanics ---------------------------------------------------------
    def _next_victim(self) -> Optional[int]:
        for k in self.priorities:
            if k in self.active:
                return k
        return None

    def _next_restore(self) -> Optional[int]:
        # restore in reverse shed order: most protected carrier first
        for k in reversed(self.priorities):
            if k in self.parked and k not in self.terminal:
                return k
        return None

    def _shed(self, carrier: int, margin: float) -> None:
        parked = [a for a in self.plan.assignments if a.carrier == carrier]
        for a in parked:
            self.plan.release(a.terminal)
        self.parked[carrier] = parked
        self.active.discard(carrier)
        self.events.append(("shed", carrier, margin))
        p = self._probe
        if p is not None:
            p.count("sheds")
            p.event(
                "fdir.shed",
                carrier=carrier,
                margin_db=margin,
                terminals=len(parked),
            )

    def _restore(self, carrier: int, margin: float) -> None:
        parked = self.parked.pop(carrier, [])
        for a in parked:
            if self.plan.occupant(a.carrier, a.slot) is None:
                self.plan.assign(a.terminal, a.carrier, a.slot)
        self.active.add(carrier)
        self.events.append(("restore", carrier, margin))
        p = self._probe
        if p is not None:
            p.count("restores")
            p.event(
                "fdir.restore",
                carrier=carrier,
                margin_db=margin,
                terminals=len(parked),
            )

    def force_shed(self, carrier: int, reason: str = "equipment failed") -> int:
        """Permanently shed a carrier lost to hardware.

        Its terminals are re-planned onto free slots of the surviving
        carriers (best effort, plan-capacity permitting); the carrier is
        excluded from restoration.  Returns how many terminals were
        re-accommodated.
        """
        if carrier in self.terminal:
            return 0
        self.terminal.add(carrier)
        was_active = carrier in self.active
        if was_active:
            self._shed(carrier, self.last_margin_db or 0.0)
        displaced = self.parked.pop(carrier, [])
        rehomed = 0
        for a in displaced:
            slot_found = False
            for k in sorted(self.active):
                for s in range(self.plan.slots_per_frame):
                    if self.plan.occupant(k, s) is None:
                        self.plan.assign(a.terminal, k, s)
                        rehomed += 1
                        slot_found = True
                        break
                if slot_found:
                    break
        p = self._probe
        if p is not None:
            p.count("force_sheds")
            p.event(
                "fdir.force_shed",
                carrier=carrier,
                reason=reason,
                rehomed=rehomed,
                displaced=len(displaced),
            )
        return rehomed
