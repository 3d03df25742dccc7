"""Per-class queue budgets for demand-plane work items.

Every burst request the demand plane admits is queued with a
:class:`Deadline`: the absolute simulated time by which it must be
served, ``Deadline.after(now, budget)`` with the budget of its priority
class.  The serving loop sheds an item whose deadline has
:meth:`~Deadline.expired` instead of serving it: a request that can no
longer meet its budget only wastes capacity that live requests need,
which is exactly how an overloaded system collapses.

Deadlines are plain data (absolute expiry, not a countdown), so the
queue needs no timer per item.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Deadline"]


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry time in simulated seconds.

    Build one at admission (``Deadline.after(sim.now, budget)``) and
    test it with :meth:`expired` before spending capacity on the item.
    """

    expires_at: float

    @classmethod
    def after(cls, now: float, budget: float) -> "Deadline":
        """A deadline ``budget`` seconds from ``now``."""
        if budget <= 0:
            raise ValueError(f"deadline budget must be > 0, got {budget}")
        return cls(expires_at=now + budget)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at
