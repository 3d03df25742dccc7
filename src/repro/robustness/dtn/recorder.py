"""Onboard solid-state recorder: store-and-forward for telemetry.

Out of contact, the satellite keeps producing telemetry it cannot
downlink.  The classical answer is a solid-state recorder: a bounded
onboard store that absorbs TM records while the ground is away and
plays them back -- ground-driven, oldest-first within priority -- at
the next pass.

:class:`SolidStateRecorder` composes with the demand-plane priority
classes from the overload layer (``p0`` > ``p1`` > ``p2``): when the
store overflows it sheds the *lowest* priority class first, oldest
record first within a class, and only drops an incoming record when
nothing of lower-or-equal standing can make room.  Nothing recorded is
ever lost below capacity.

Playback is **authorization-driven**: the recorder releases records
only against a budget granted by the ground (the NCC's ``playback``
telecommand at the start of a pass), so the downlink never blind-fires
stored telemetry into an outage.  Highest priority plays back first.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = ["SolidStateRecorder", "PRIORITY_CLASSES"]

#: Priority classes, most important first (shared with the overload
#: layer's admission classes).
PRIORITY_CLASSES: Tuple[str, ...] = ("p0", "p1", "p2")


class SolidStateRecorder:
    """Bounded priority store for TM records (JSON-serializable).

    ``capacity_bytes`` bounds the encoded size of everything held.
    :meth:`record` admits a record under a priority class, evicting
    lower-priority records when full; :meth:`authorize` grants a
    playback budget; :meth:`drain_authorized` (wired as a
    :class:`repro.net.tm.TelemetryDownlink` source) releases stored
    records against that budget, highest priority first.
    """

    def __init__(self, capacity_bytes: int = 1 << 16, name: str = "ssr") -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.bytes_used = 0
        self._seq = 0
        #: per-class FIFO of (seq, nbytes, record)
        self._queues: Dict[str, deque] = {c: deque() for c in PRIORITY_CLASSES}
        self.authorized = 0
        self.stats = {
            "recorded": 0,
            "recorded_bytes": 0,
            "played_back": 0,
            "played_back_bytes": 0,
            "shed": 0,
            "shed_bytes": 0,
            # shed = dropped (incoming refused) + evicted (admitted,
            # then displaced by higher priority); kept separate so the
            # conservation law `recorded + dropped == offered` and
            # `played_back + pending + evicted == recorded` both close
            "dropped": 0,
            "evicted": 0,
        }
        self.shed_by_class: Dict[str, int] = {c: 0 for c in PRIORITY_CLASSES}
        self.recorded_by_class: Dict[str, int] = {c: 0 for c in PRIORITY_CLASSES}
        self._probe = _obs_probe("dtn.recorder", recorder=name)

    # -- recording ---------------------------------------------------------
    def record(self, record, cls: str = "p1") -> bool:
        """Store one record; returns False when it had to be shed.

        Overflow sheds the lowest-priority stored records first (oldest
        first within a class).  An incoming record is itself shed only
        when everything stored is of strictly higher priority.
        """
        if cls not in self._queues:
            raise ValueError(f"unknown priority class {cls!r}")
        nbytes = len(json.dumps(record).encode())
        if nbytes > self.capacity_bytes:
            self._note_shed(cls, nbytes, "dropped")
            return False
        if not self._make_room(nbytes, cls):
            self._note_shed(cls, nbytes, "dropped")
            return False
        self._queues[cls].append((self._seq, nbytes, record))
        self._seq += 1
        self.bytes_used += nbytes
        self.stats["recorded"] += 1
        self.stats["recorded_bytes"] += nbytes
        self.recorded_by_class[cls] += 1
        p = self._probe
        if p is not None:
            p.count("recorded")
            p.count("recorded_bytes", nbytes)
        return True

    def _make_room(self, nbytes: int, cls: str) -> bool:
        """Free space for an incoming record of class ``cls``.

        Evicts from the lowest-priority non-empty class upward, but
        never from a class of strictly higher priority than the
        incoming record.
        """
        if self.bytes_used + nbytes <= self.capacity_bytes:
            return True
        rank = PRIORITY_CLASSES.index(cls)
        # lowest priority first, down to (and including) the incoming class
        for victim_cls in reversed(PRIORITY_CLASSES[rank:]):
            q = self._queues[victim_cls]
            while q and self.bytes_used + nbytes > self.capacity_bytes:
                if victim_cls == cls and len(q) == 0:
                    break
                _, vbytes, _ = q.popleft()
                self.bytes_used -= vbytes
                self._note_shed(victim_cls, vbytes, "evicted")
            if self.bytes_used + nbytes <= self.capacity_bytes:
                return True
        return self.bytes_used + nbytes <= self.capacity_bytes

    def _note_shed(self, cls: str, nbytes: int, kind: str) -> None:
        self.stats["shed"] += 1
        self.stats["shed_bytes"] += nbytes
        self.stats[kind] += 1
        self.shed_by_class[cls] += 1
        p = self._probe
        if p is not None:
            p.count("shed")
            p.count(kind)
            p.event("dtn.recorder_shed", cls=cls, bytes=nbytes, reason=kind)

    # -- playback ----------------------------------------------------------
    def authorize(self, budget_records: int) -> int:
        """Grant a playback budget (ground-driven); returns the total."""
        if budget_records < 0:
            raise ValueError("budget must be >= 0")
        self.authorized += budget_records
        p = self._probe
        if p is not None:
            p.count("authorized", budget_records)
        return self.authorized

    def drain_authorized(self, max_records: Optional[int] = None) -> List:
        """Release stored records against the granted budget.

        Highest priority first, oldest first within a class.  Wire this
        as a ``TelemetryDownlink`` source: it returns ``[]`` while no
        budget is outstanding, so nothing stored leaks into an outage.
        """
        budget = self.authorized
        if max_records is not None:
            budget = min(budget, max_records)
        out = self._pop(budget)
        self.authorized -= len(out)
        return out

    def drain(self, max_records: Optional[int] = None) -> List:
        """Unconditionally release up to ``max_records`` (test/ops use)."""
        n = self.pending() if max_records is None else max_records
        return self._pop(n)

    def _pop(self, budget: int) -> List:
        out: List = []
        for cls in PRIORITY_CLASSES:
            q = self._queues[cls]
            while q and len(out) < budget:
                _, nbytes, record = q.popleft()
                self.bytes_used -= nbytes
                self.stats["played_back"] += 1
                self.stats["played_back_bytes"] += nbytes
                out.append(record)
            if len(out) >= budget:
                break
        if out:
            p = self._probe
            if p is not None:
                p.count("played_back", len(out))
        return out

    # -- introspection -----------------------------------------------------
    def pending(self, cls: Optional[str] = None) -> int:
        if cls is not None:
            return len(self._queues[cls])
        return sum(len(q) for q in self._queues.values())

    def status(self) -> dict:
        return {
            "pending": self.pending(),
            "pending_by_class": {c: len(q) for c, q in self._queues.items()},
            "bytes_used": self.bytes_used,
            "capacity_bytes": self.capacity_bytes,
            "authorized": self.authorized,
            "shed_by_class": dict(self.shed_by_class),
            **self.stats,
        }
