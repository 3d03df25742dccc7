"""Contact plans and outage modelling for the space link.

Every protocol conclusion in the paper's §3.3 assumes the ground
station is *there*.  It is not, most of the time: a non-GEO pass lasts
minutes, a GEO link rides through rain blackouts and station handovers.
This module provides the deterministic timeline of link availability
that the disruption-tolerant operations layer is built on:

- :class:`ContactWindow` -- one scheduled visibility window of one
  ground station;
- :class:`ContactPlan` -- the ordered, non-overlapping window sequence
  (per-station metadata preserved), with ``in_contact`` / ``next_contact``
  queries any process can consult;
- :class:`OutageEvent` -- an *unscheduled* link loss (rain cell,
  interference, equipment trip) that punches a hole into a scheduled
  window;
- :class:`LinkScheduler` -- the simulation process that drives a
  :class:`repro.net.simnet.Link` hard-down/up from the plan minus the
  outages, counts passes and exposes in/out-of-contact observability.

The scheduler is the single writer of ``link.set_up`` so that the
contact timeline is a pure function of (plan, outages) -- same spec,
same link state trajectory, same trace hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = [
    "ContactPlan",
    "ContactWindow",
    "LinkScheduler",
    "OutageEvent",
]


@dataclass(frozen=True)
class ContactWindow:
    """One scheduled visibility window ``[start, end)`` in sim seconds."""

    start: float
    end: float
    station: str = "gs0"

    def problems(self, idx: int) -> List[str]:
        out = []
        tag = f"windows[{idx}]"
        if self.start < 0:
            out.append(f"{tag}.start {self.start} must be >= 0")
        if self.end <= self.start:
            out.append(f"{tag}: end {self.end} must be > start {self.start}")
        if not self.station:
            out.append(f"{tag}.station must be named")
        return out

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class OutageEvent:
    """One unscheduled outage ``[start, start + duration)``.

    ``kind`` is free-form telemetry (``"rain"``, ``"handover"``,
    ``"interference"``); it does not change the semantics -- the link
    is hard down either way.
    """

    start: float
    duration: float
    kind: str = "rain"

    def problems(self, idx: int) -> List[str]:
        out = []
        tag = f"outages[{idx}]"
        if self.start < 0:
            out.append(f"{tag}.start {self.start} must be >= 0")
        if self.duration <= 0:
            out.append(f"{tag}.duration {self.duration} must be > 0")
        return out

    @property
    def end(self) -> float:
        return self.start + self.duration

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


class ContactPlan:
    """An ordered sequence of non-overlapping contact windows.

    Windows must be sorted by start and must not overlap (two stations
    tracking simultaneously would be modelled as one merged window --
    there is a single space link).  An empty plan means *permanent*
    contact: the classical always-up assumption the rest of the stack
    grew up with.
    """

    def __init__(self, windows: Sequence[ContactWindow] = ()) -> None:
        self.windows: Tuple[ContactWindow, ...] = tuple(windows)
        probs = self.problems()
        if probs:
            raise ValueError("invalid contact plan:\n  - " + "\n  - ".join(probs))

    def problems(self) -> List[str]:
        out: List[str] = []
        for i, w in enumerate(self.windows):
            out.extend(w.problems(i))
        for i in range(1, len(self.windows)):
            if self.windows[i].start < self.windows[i - 1].end:
                out.append(
                    f"windows[{i}] starts at {self.windows[i].start} before "
                    f"windows[{i - 1}] ends at {self.windows[i - 1].end}"
                )
        return out

    @property
    def permanent(self) -> bool:
        """True when the plan is empty (always in contact)."""
        return not self.windows

    def in_contact(self, t: float) -> bool:
        if self.permanent:
            return True
        return any(w.contains(t) for w in self.windows)

    def window_at(self, t: float) -> Optional[ContactWindow]:
        for w in self.windows:
            if w.contains(t):
                return w
        return None

    def next_contact(self, t: float) -> Optional[float]:
        """Start of the next window at or after ``t`` (now if inside one).

        ``None`` once the plan is exhausted; ``t`` itself for a
        permanent plan.
        """
        if self.permanent:
            return t
        for w in self.windows:
            if w.contains(t):
                return t
            if w.start >= t:
                return w.start
        return None


class LinkScheduler:
    """Drive a link hard-down/up from a contact plan minus outages.

    The effective state at time ``t`` is ``plan.in_contact(t) and not
    any outage contains t``.  Transitions are scheduled eagerly at
    construction (the timeline is fully deterministic), so the
    scheduler adds a bounded number of events regardless of how long
    the mission runs.

    Nothing is called back at a transition: the NCC playback driver
    polls :meth:`effective`, and the resumable uploader asks
    :meth:`next_contact` when to wake.
    """

    def __init__(
        self,
        link,
        plan: ContactPlan,
        outages: Sequence[OutageEvent] = (),
        name: str = "dtn",
    ) -> None:
        self.link = link
        self.sim = link.sim
        self.plan = plan
        self.outages: Tuple[OutageEvent, ...] = tuple(outages)
        probs: List[str] = []
        for i, o in enumerate(self.outages):
            probs.extend(o.problems(i))
        if probs:
            raise ValueError("invalid outages:\n  - " + "\n  - ".join(probs))
        self.name = name
        self.passes = 0
        self._probe = _obs_probe("dtn.contact", plan=name)
        # collect every instant the effective state can change
        edges = set()
        for w in plan.windows:
            edges.add(w.start)
            edges.add(w.end)
        for o in self.outages:
            edges.add(o.start)
            edges.add(o.end)
        now = self.sim.now
        initial = self.effective(now)
        if link.up != initial:
            link.set_up(initial)
        if initial:
            self.passes += 1
        for t in sorted(e for e in edges if e > now):
            self.sim.call_at(t, lambda t=t: self._apply(t))

    def effective(self, t: float) -> bool:
        """The planned link state at ``t`` (plan minus outages)."""
        if not self.plan.in_contact(t):
            return False
        return not any(o.contains(t) for o in self.outages)

    def next_contact(self, t: float) -> Optional[float]:
        """Earliest instant >= ``t`` at which the link is effectively up.

        Walks the plan's windows clipped by the outage holes; ``None``
        when no further contact exists.
        """
        edges = {t}
        for w in self.plan.windows:
            edges.add(w.start)
        for o in self.outages:
            edges.add(o.end)
        for cand in sorted(e for e in edges if e >= t):
            if self.effective(cand):
                return cand
        return None

    def _apply(self, t: float) -> None:
        want = self.effective(t)
        if want == self.link.up:
            return
        self.link.set_up(want)
        p = self._probe
        if want:
            self.passes += 1
            if p is not None:
                p.count("passes")
                p.event("dtn.contact_start", t=t, plan=self.name)
        else:
            if p is not None:
                p.count("contact_ends")
                p.event("dtn.contact_end", t=t, plan=self.name)

    def stats(self) -> dict:
        out = dict(self.link.contact_stats())
        out["passes"] = self.passes
        out["scheduled_windows"] = len(self.plan.windows)
        out["outages"] = len(self.outages)
        return out
