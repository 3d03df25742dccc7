"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, used as the substrate for the reconfiguration network stack
(:mod:`repro.net`), the on-board controller (:mod:`repro.core`) and the
scenario runner's mission clock (:mod:`repro.scenarios`).

Public API
----------
- :class:`Simulator` -- the event loop (heap-ordered, deterministic ties).
- :class:`Event` -- one-shot event that processes can wait on.
- :class:`Timeout` -- event that fires after a simulated delay.
- :class:`Process` -- generator-based coroutine driven by the simulator.
- :class:`AnyOf` -- fires with the first of several events.
- :class:`Store` -- unbounded FIFO channel with a blocking ``get``.
- :mod:`repro.sim.rng` -- named, reproducible random streams.
"""

from .kernel import (
    AnyOf,
    Event,
    Process,
    Simulator,
    SimulatorError,
    Store,
    Timeout,
)
from .rng import RngRegistry, derive_seed

__all__ = [
    "AnyOf",
    "Event",
    "Process",
    "RngRegistry",
    "derive_seed",
    "Simulator",
    "SimulatorError",
    "Store",
    "Timeout",
]
