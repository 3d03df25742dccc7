"""Ingress admission control: per-priority-class token buckets.

The cheapest place to handle overload is *before* any capacity is
spent: an admission controller at the demand-plane ingress that matches
the offered demand against what the payload can actually serve.  Each
priority class gets a :class:`TokenBucket` refilled at its share of the
capacity estimate; a request that finds its class bucket empty is
rejected at the door -- a one-counter operation -- instead of joining a
queue it would die in.

The capacity estimate comes from the same quantities the rest of the
repository already computes: the link-budget margin / active-carrier
count the :class:`~repro.robustness.fdir.degraded.DegradedModePolicy`
maintains, and the demand mix the NCC's
:class:`~repro.ncc.traffic.TrafficModel` forecasts
(:meth:`AdmissionController.from_service_mix` maps voice/video/text
fractions onto the class shares).  Capacity is *live*: call
:meth:`AdmissionController.set_capacity` whenever carriers are shed or
restored and the bucket rates follow.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ...obs.probes import probe as _obs_probe

__all__ = ["PRIORITY_CLASSES", "TokenBucket", "AdmissionController"]

#: Demand-plane priority classes, highest priority first.  The mapping
#: chosen for the paper's service mix: real-time voice/control traffic
#: is ``p0`` (never shed), video is ``p1``, bulk text/data is ``p2``
#: (shed first).
PRIORITY_CLASSES: Tuple[str, ...] = ("p0", "p1", "p2")
#: Over-provisioning of every class bucket over its capacity share.
HEADROOM = 1.2
#: Seconds of its rate a class bucket holds when full.
BURST_SECONDS = 2.0


class TokenBucket:
    """A token bucket on simulated time.

    ``rate`` tokens/second accrue up to ``burst``; :meth:`try_take`
    lazily refills from the clock so no periodic process is needed --
    essential in a discrete-event simulation where nothing should wake
    up just to add tokens.
    """

    def __init__(
        self, rate: float, burst: float, clock: Callable[[], float]
    ) -> None:
        if rate < 0 or burst <= 0:
            raise ValueError("rate must be >= 0 and burst > 0")
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self._tokens = burst
        self._last = clock()

    def _refill(self, now: float) -> None:
        dt = now - self._last
        if dt > 0:
            self._tokens = min(self.burst, self._tokens + dt * self.rate)
            self._last = now

    def try_take(self) -> bool:
        """Take one token if available; ``False`` without side effects."""
        self._refill(self.clock())
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def set_rate(self, rate: float, burst: float) -> None:
        """Re-point the bucket at a new capacity share (tokens kept,
        capped at the new ``burst``)."""
        if rate < 0 or burst <= 0:
            raise ValueError("rate must be >= 0 and burst > 0")
        self._refill(self.clock())
        self.rate = rate
        self.burst = burst
        self._tokens = min(self._tokens, burst)


class AdmissionController:
    """Per-priority-class token-bucket admission at the demand ingress.

    ``capacity`` is the total admittable rate (requests/second, or any
    consistent unit); ``shares`` splits it across
    :data:`PRIORITY_CLASSES`, one non-negative share per class, summing
    to at most 1.  The buckets are over-provisioned by
    :data:`HEADROOM` so nominal jitter never rejects -- admission
    control exists to stop *overload*, not to shape clean traffic --
    and hold :data:`BURST_SECONDS` of their rate.

    :meth:`shed` / :meth:`restore` gate whole classes closed -- the
    brownout ladder's lever: a shed class is rejected at the door for
    one counter tick, no matter how many tokens its bucket holds.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: float,
        shares: Dict[str, float],
    ) -> None:
        if set(shares) != set(PRIORITY_CLASSES):
            raise ValueError(
                f"shares must name the classes {list(PRIORITY_CLASSES)}, "
                f"got {sorted(shares)}"
            )
        if any(v < 0 for v in shares.values()):
            raise ValueError("shares must be >= 0")
        spent = sum(shares.values())
        if spent > 1.0 + 1e-9:
            raise ValueError(f"shares sum to {spent} > 1")
        self.clock = clock
        self._shares = dict(shares)
        self.buckets: Dict[str, TokenBucket] = {}
        self._closed: set = set()
        self.admitted: Dict[str, int] = {c: 0 for c in PRIORITY_CLASSES}
        self.rejected: Dict[str, int] = {c: 0 for c in PRIORITY_CLASSES}
        self._probe = _obs_probe("overload.admission")
        self.capacity = 0.0
        self.set_capacity(capacity)

    # -- capacity ---------------------------------------------------------
    def set_capacity(self, capacity: float) -> None:
        """Re-derive every bucket from a fresh capacity estimate.

        Call when the link budget moves -- carriers shed/restored, fade
        deepening -- so admission tracks what the payload can *really*
        serve right now.
        """
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        for cls in PRIORITY_CLASSES:
            rate = capacity * self._shares[cls] * HEADROOM
            burst = max(1.0, rate * BURST_SECONDS)
            bucket = self.buckets.get(cls)
            if bucket is None:
                self.buckets[cls] = TokenBucket(rate, burst, self.clock)
            else:
                bucket.set_rate(rate, burst)
        p = self._probe
        if p is not None:
            p.gauge("capacity", capacity)

    @property
    def shares(self) -> Dict[str, float]:
        return dict(self._shares)

    @classmethod
    def from_service_mix(
        cls,
        mix,
        capacity: float,
        clock: Callable[[], float],
    ) -> "AdmissionController":
        """Build a controller whose shares follow a §2 service mix.

        ``mix`` is a :class:`repro.ncc.traffic.ServiceMix`: voice maps
        to ``p0``, video to ``p1``, text to ``p2`` -- the demand
        forecast *is* the capacity split, which is what lets the NCC
        retune admission as the mission-year mix evolves.
        """
        shares = {"p0": float(mix.voice), "p1": float(mix.video),
                  "p2": float(mix.text)}
        total = sum(shares.values())
        if total > 0:
            shares = {k: v / total for k, v in shares.items()}
        return cls(clock, capacity, shares=shares)

    # -- the class gates (brownout lever) ---------------------------------
    def shed(self, cls_name: str) -> None:
        """Close a class: reject its requests at the door."""
        if cls_name not in PRIORITY_CLASSES:
            raise KeyError(cls_name)
        self._closed.add(cls_name)

    def restore(self, cls_name: str) -> None:
        """Re-open a shed class."""
        self._closed.discard(cls_name)

    # -- the decision ------------------------------------------------------
    def admit(self, cls_name: str) -> bool:
        """Admit one request of ``cls_name`` (one token of its bucket).

        Rejections are cheap by design: a set lookup (class shed) or a
        bucket check.  Unknown classes are rejected, never crash -- a
        malformed request must not take the ingress down.
        """
        p = self._probe
        if cls_name not in self.admitted:
            if p is not None:
                p.count("unknown_class")
            return False
        now = self.clock()
        if cls_name in self._closed:
            self.rejected[cls_name] += 1
            if p is not None:
                p.count(f"rejected_{cls_name}")
                p.event(
                    "overload.reject",
                    t=now,
                    cls=cls_name,
                    reason="class-shed",
                )
            return False
        if not self.buckets[cls_name].try_take():
            self.rejected[cls_name] += 1
            if p is not None:
                p.count(f"rejected_{cls_name}")
                p.event(
                    "overload.reject",
                    t=now,
                    cls=cls_name,
                    reason="no-tokens",
                )
            return False
        self.admitted[cls_name] += 1
        if p is not None:
            p.count(f"admitted_{cls_name}")
        return True
