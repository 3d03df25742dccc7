"""Demand-plane overload control: shed load early, never collapse.

The command plane (:mod:`repro.robustness.transactions`) and the
hardware-fault plane (:mod:`repro.robustness.fdir`) are hardened by the
earlier robustness layers; this package closes the remaining gap named
by the scalable-payload literature: **offered load exceeding on-board
capacity**.  It acts on the demand plane, the per-frame burst-request
model the scenario runner drives, and the defense is layered, cheapest
first:

1. :mod:`.admission` -- per-priority-class token buckets at the
   demand-plane ingress, rates fed by the
   :class:`~repro.ncc.traffic.ServiceMix` demand forecast and the live
   link-budget capacity estimate.  Excess load is rejected at the door
   for the cost of a counter tick.
2. :mod:`.queues` -- one bounded FIFO per class with explicit
   backpressure (``offer`` -> bool) that records each request's
   sojourn.  The one expiry rule: the serving loop sheds a head whose
   sojourn has reached its class budget instead of serving it.
3. :mod:`.brownout` -- a circuit breaker for sick downstream
   components and a brownout ladder that sheds low-priority service
   classes first and restores with hysteresis + dwell (no flapping),
   composing with the FDIR ``DegradedModePolicy``'s carrier shedding.

A :class:`repro.scenarios.SurgeProfile` composes the whole stack into a
mission run by the scenario runner; the shed-before-collapse
acceptance sweep (flash crowd, sustained 10x surge, surge during a
rain fade, surge during FDIR recovery) is
:func:`repro.scenarios.overload_sweep`.

All decisions emit ``overload.*`` metrics and trace events through
:mod:`repro.obs`.  See ``docs/robustness.md`` for the full semantics.
"""

from .admission import PRIORITY_CLASSES, AdmissionController, TokenBucket
from .brownout import BrownoutLadder, CircuitBreaker
from .queues import BoundedQueue

__all__ = [
    "AdmissionController",
    "BoundedQueue",
    "BrownoutLadder",
    "CircuitBreaker",
    "PRIORITY_CLASSES",
    "TokenBucket",
]
