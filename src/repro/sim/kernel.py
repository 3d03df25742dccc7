"""Generator-based discrete-event simulation kernel.

The kernel is deliberately small: an event heap keyed on
``(time, priority, sequence)`` so that simultaneous events fire in a
deterministic order, plus a coroutine driver that lets simulation
processes be written as plain Python generators::

    def sender(sim, store):
        yield sim.timeout(1.0)
        yield store.put("hello")

    sim = Simulator()
    store = Store(sim)
    sim.process(sender(sim, store))
    sim.run()

Processes may yield:

- an :class:`Event` (including :class:`Timeout`) -- resume when it fires,
- another :class:`Process` -- resume when that process terminates,
- :class:`AnyOf` -- resume when the first of several events fires
  (the timeout race of a blocking receive).

Failures propagate: if a waited-on event fails, the exception is thrown
into the waiting generator at the ``yield``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.probes import probe as _obs_probe

__all__ = [
    "AnyOf",
    "Event",
    "Process",
    "Simulator",
    "SimulatorError",
    "Store",
    "Timeout",
]


class SimulatorError(RuntimeError):
    """Raised for misuse of the kernel (double-trigger, bad yield, ...)."""


# Event states
_PENDING = 0
_SCHEDULED = 1
_FIRED = 2


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    schedules it on the simulator, and once processed it is *fired* and
    its callbacks have been run.  Events are single-shot: triggering an
    already-triggered event raises :class:`SimulatorError`.
    """

    __slots__ = ("sim", "callbacks", "_state", "_ok", "_value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._state = _PENDING
        self._ok = True
        self._value: Any = None

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded/failed."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _FIRED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulatorError("event already triggered")
        self._state = _SCHEDULED
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exc``."""
        if self._state != _PENDING:
            raise SimulatorError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _SCHEDULED
        self._ok = False
        self._value = exc
        self.sim._schedule(self, delay)
        return self

    # -- kernel hook ----------------------------------------------------
    def _fire(self) -> None:
        self._state = _FIRED
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event fires (immediately if fired)."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """Event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._state = _SCHEDULED
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class AnyOf(Event):
    """Fires when the first of its events fires (fails on first failure).

    The value is a dict of every already-fired, successful event to its
    value; an empty ``AnyOf`` fires at once with ``{}``.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            ev.add_callback(self._on_fire)

    def _on_fire(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed(
                {e: e.value for e in self._events if e.processed and e.ok}
            )
        else:
            self.fail(ev.value)


class Process(Event):
    """A coroutine driven by the simulator.

    The process *is itself an event*: it fires (with the generator's
    return value) when the generator terminates, so other processes can
    ``yield proc`` to join on it.
    """

    __slots__ = ("_gen", "name", "_t_started")

    def __init__(
        self, sim: "Simulator", gen: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._t_started = sim.now
        p = sim._probe
        if p is not None:
            p.count("processes_started")
            p.gauge_series("processes_alive").inc()
            p.event("proc.start", t=sim.now, name=self.name)
        # bootstrap: start the generator at time now
        start = Event(sim)
        start.add_callback(self._resume)
        start.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._state == _PENDING

    def _note_end(self, ok: bool) -> None:
        """Account process termination on the kernel probe (if any)."""
        p = self.sim._probe
        if p is not None:
            p.count("processes_ended")
            p.gauge_series("processes_alive").dec()
            p.observe("process_lifetime", self.sim.now - self._t_started)
            p.event("proc.end", t=self.sim.now, name=self.name, ok=ok)

    # -- driving --------------------------------------------------------
    def _resume(self, ev: Event) -> None:
        self._step(ev.value, throw=not ev.ok)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self._gen.throw(value)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            if self._state == _PENDING:
                self.succeed(stop.value)
                self._note_end(ok=True)
            return
        except Exception as exc:
            if self._state == _PENDING:
                self.fail(exc)
                self._note_end(ok=False)
                return
            raise
        try:
            ev = self._as_event(target)
        except SimulatorError as exc:
            self._gen.close()
            if self._state == _PENDING:
                self.fail(exc)
                self._note_end(ok=False)
            return
        ev.add_callback(self._resume)

    def _as_event(self, target: Any) -> Event:
        if isinstance(target, Event):
            return target
        raise SimulatorError(
            f"process {self.name!r} yielded non-event {target!r}; yield an "
            "Event, Timeout, Process or AnyOf"
        )


class Store:
    """Unbounded FIFO channel.

    ``put(item)`` and ``get()`` both return events the caller must yield.
    A put is accepted at once: its event is scheduled before the event
    of the getter (if any) that the item is handed to.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.items: list[Any] = []
        self._getters: list[Event] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` has been accepted."""
        ev = Event(self.sim)
        ev.succeed(None)
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)
        return ev

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def cancel_get(self, ev: Event) -> bool:
        """Withdraw a pending ``get`` event (e.g. after a timeout race).

        Returns True if the event was still queued and got removed; a
        fired or unknown event returns False.
        """
        try:
            self._getters.remove(ev)
            return True
        except ValueError:
            return False


class Simulator:
    """Deterministic discrete-event loop.

    Simultaneous events fire in scheduling order (FIFO among equal
    timestamps), making runs reproducible.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.event_count = 0
        #: observability hook (None while repro.obs is disabled); also
        #: read by Process for lifetime accounting.
        self._probe = _obs_probe("sim.kernel")

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, gen, name=name)

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulatorError(f"call_at({time}) is in the past (now={self._now})")
        ev = Event(self)
        ev.add_callback(lambda _ev: fn())
        ev.succeed(None, delay=time - self._now)
        return ev

    # -- scheduling -----------------------------------------------------
    def _schedule(self, ev: Event, delay: float) -> None:
        if delay < 0:
            raise SimulatorError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._seq, ev))
        self._seq += 1
        p = self._probe
        if p is not None:
            p.count("events_scheduled")
            p.gauge("queue_depth", len(self._heap))

    def step(self) -> bool:
        """Process one event; return False when the heap is empty."""
        if not self._heap:
            return False
        t, _seq, ev = heapq.heappop(self._heap)
        self._now = t
        self.event_count += 1
        p = self._probe
        if p is not None:
            p.count("events_fired")
            p.gauge("queue_depth", len(self._heap))
        ev._fire()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or simulated time passes ``until``.

        Returns the simulation time at exit.  With ``until`` given, the
        clock is advanced to exactly ``until`` even if the heap drained
        earlier, so back-to-back ``run(until=...)`` calls compose.
        """
        if until is None:
            while self.step():
                pass
            return self._now
        if until < self._now:
            raise SimulatorError(f"run(until={until}) is in the past")
        while self._heap and self._heap[0][0] <= until:
            self.step()
        self._now = max(self._now, until)
        return self._now

    def run_until_event(self, ev: Event, limit: float = float("inf")) -> Any:
        """Run until ``ev`` has been processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulatorError` if the heap drains (or ``limit`` elapses)
        before the event fires.
        """
        while not ev.processed:
            if not self._heap:
                raise SimulatorError("event heap drained before event fired")
            if self._heap[0][0] > limit:
                raise SimulatorError(f"time limit {limit} exceeded waiting on event")
            self.step()
        if not ev.ok:
            raise ev.value
        return ev.value
