"""Deterministic ring-buffer event tracer with golden-trace hashing.

A :class:`Tracer` records structured events keyed on **simulated** time
into a bounded ring buffer.  Because the simulation kernel is
deterministic (heap ordered on ``(time, seq)``) and every instrumented
field is derived from simulation state -- never wall clock, never object
identity -- the trace of a run is a pure function of its inputs and
seeds.  :meth:`Tracer.canonical` therefore serializes to **byte-stable**
output and :meth:`Tracer.hash` doubles as a regression oracle: two runs
with the same seed must hash identically, and a behaviour change shows
up as a hash change long before anyone eyeballs a log.

Events are points in simulated time; a subsystem that needs an
interval emits its own start and end events.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["TraceEvent", "Tracer"]


class TraceEvent:
    """One structured trace record.

    ``seq`` is the global emission index (monotonic even across ring
    evictions), ``t`` the simulated time, ``kind`` a dotted event name
    and ``fields`` a flat dict of JSON-able values.
    """

    __slots__ = ("seq", "t", "kind", "fields")

    def __init__(self, seq: int, t: float, kind: str, fields: Dict[str, Any]):
        self.seq = seq
        self.t = t
        self.kind = kind
        self.fields = fields

    def canonical_line(self) -> str:
        """Byte-stable single-line rendering (sorted keys, repr'd floats)."""
        payload = json.dumps(
            self.fields, sort_keys=True, separators=(",", ":"), default=str
        )
        return f"{self.seq} {self.t!r} {self.kind} {payload}"

    def __repr__(self) -> str:  # debugging aid, not canonical
        return f"TraceEvent({self.canonical_line()})"


class Tracer:
    """Bounded, deterministic structured-event recorder.

    Parameters
    ----------
    capacity:
        Ring-buffer size.  Older events are evicted (and counted in
        :attr:`dropped`) once the buffer is full.
    clock:
        Optional zero-arg callable returning the current simulated time,
        used when ``emit`` is called without an explicit
        ``t``.  Defaults to a constant ``0.0`` (untimed subsystems such
        as :mod:`repro.core.reconfig` trace at t=0 and rely on ``seq``
        for ordering).
    """

    def __init__(self, capacity: int = 8192, clock: Optional[Callable[[], float]] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self._buf: List[Optional[TraceEvent]] = [None] * capacity
        self._head = 0  # next write slot
        self._len = 0
        self.total = 0  # events ever emitted
        self.dropped = 0  # events evicted from the ring

    # -- recording ---------------------------------------------------------
    def _time(self, t: Optional[float]) -> float:
        if t is not None:
            return float(t)
        return float(self.clock()) if self.clock is not None else 0.0

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """(Re)bind the default time source, e.g. ``sim`` now-getter."""
        self.clock = clock

    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> TraceEvent:
        """Record one event; returns it (mostly for tests)."""
        ev = TraceEvent(self.total, self._time(t), kind, fields)
        if self._len == self.capacity:
            self.dropped += 1
        else:
            self._len += 1
        self._buf[self._head] = ev
        self._head = (self._head + 1) % self.capacity
        self.total += 1
        return ev

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def events(self) -> Iterator[TraceEvent]:
        """Retained events, oldest first."""
        start = (self._head - self._len) % self.capacity
        for i in range(self._len):
            ev = self._buf[(start + i) % self.capacity]
            assert ev is not None
            yield ev

    # -- golden-trace oracle -------------------------------------------------
    def canonical(self) -> bytes:
        """Byte-stable serialization of the retained trace.

        The header pins the emission totals so that *which* events were
        evicted participates in the identity, not just the survivors.
        """
        lines = [f"# trace total={self.total} dropped={self.dropped} capacity={self.capacity}"]
        lines.extend(ev.canonical_line() for ev in self.events())
        return ("\n".join(lines) + "\n").encode("utf-8")

    def hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical` -- the regression oracle."""
        return hashlib.sha256(self.canonical()).hexdigest()

    def kind_counts(self) -> Dict[str, int]:
        """Retained events per ``kind``, sorted by kind name.

        A hash mismatch says *that* a run drifted; diffing two runs'
        kind counts says *where* -- which subsystem emitted more or
        fewer events.  The scenario conformance engine freezes these
        next to the trace hash so a golden failure points at the
        diverging event stream instead of an opaque digest.
        """
        counts: Dict[str, int] = {}
        for ev in self.events():
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return dict(sorted(counts.items()))
