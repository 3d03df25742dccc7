"""A bounded FIFO with explicit backpressure and sojourn accounting.

:class:`BoundedQueue` is a fixed-capacity FIFO whose ``offer`` returns
an explicit accept/reject signal instead of growing without bound.  A
full queue is *backpressure*: the caller decides whether to drop,
defer, or push the signal further upstream.  Drop/served counters make
every decision auditable.

Each item is stamped with the ``clock`` (usually ``lambda: sim.now``)
when it is offered, so :meth:`~BoundedQueue.head_sojourn` -- how long
the oldest item has waited -- runs on simulated time and stays
deterministic.  That sojourn is the demand plane's one expiry rule: a
head that has waited its class budget is shed instead of served.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = ["BoundedQueue"]


class BoundedQueue:
    """Fixed-capacity FIFO with explicit backpressure signalling.

    ``offer`` never raises and never blocks: it returns ``False`` (and
    counts a drop) when the queue is full.  ``poll_with_sojourn``
    returns ``None`` when empty.  ``max_depth``/``stats`` expose the
    occupancy the overload invariants assert against.
    """

    def __init__(
        self,
        capacity: int,
        clock: Callable[[], float],
        name: str,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self._items: deque = deque()
        self.offered = 0
        self.accepted = 0
        self.dropped = 0
        self.served = 0
        self.max_depth = 0
        self._probe = _obs_probe("overload.queue", queue=name)

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, item: Any) -> bool:
        """Enqueue ``item``; ``False`` (+ drop counter) when full."""
        self.offered += 1
        if len(self._items) >= self.capacity:
            self.dropped += 1
            p = self._probe
            if p is not None:
                p.count("dropped")
                p.event(
                    "overload.queue_drop",
                    t=self.clock(),
                    depth=len(self._items),
                )
            return False
        self._items.append((self.clock(), item))
        self.accepted += 1
        depth = len(self._items)
        if depth > self.max_depth:
            self.max_depth = depth
        p = self._probe
        if p is not None:
            p.gauge("depth", depth)
        return True

    def poll_with_sojourn(self) -> Optional[Tuple[Any, float]]:
        """Dequeue ``(item, sojourn_seconds)`` (``None`` when empty)."""
        if not self._items:
            return None
        enq_t, item = self._items.popleft()
        self.served += 1
        sojourn = self.clock() - enq_t
        p = self._probe
        if p is not None:
            p.observe("sojourn", sojourn)
        return item, sojourn

    def head_sojourn(self) -> Optional[float]:
        """How long the current head has been waiting (None when empty)."""
        if not self._items:
            return None
        return self.clock() - self._items[0][0]

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "depth": len(self._items),
            "max_depth": self.max_depth,
            "offered": self.offered,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "served": self.served,
        }
