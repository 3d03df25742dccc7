"""Lightweight instrumentation hooks wiring subsystems to metrics/trace.

Instrumented code never talks to a :class:`~repro.obs.metrics.Registry`
directly; at construction time it asks for a :func:`probe`:

    self._probe = probe("net.link", link=name)

Outside a :func:`session` (the default) :func:`probe` returns ``None``,
so the per-operation cost in hot paths is one attribute load plus a
``None`` check:

    p = self._probe
    if p is not None:
        p.count("frames")

Inside a session, a :class:`Probe` binds cached metric series from the
session's registry (series names are ``<subsystem>.<name>``, labeled
with the probe's labels) and forwards trace events to its tracer.

:func:`session` is the only switch.  It is process-wide, takes effect
for objects constructed *inside* it, and restores the previous state
on exit, so sessions nest.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Optional

from .metrics import Registry
from .trace import Tracer

__all__ = ["Probe", "probe", "session"]


class _State:
    """The active session's registry and tracer (both ``None`` outside one)."""

    __slots__ = ("registry", "tracer")

    def __init__(self) -> None:
        self.registry: Optional[Registry] = None
        self.tracer: Optional[Tracer] = None


_STATE = _State()


@contextmanager
def session(
    registry: Optional[Registry] = None, tracer: Optional[Tracer] = None
):
    """Context manager: switch observability on for an isolated session.

    Yields ``(registry, tracer)`` -- fresh instances unless supplied --
    and restores the previous state on exit.  Only objects constructed
    inside the session pick up probes::

        with obs.session() as (reg, tr):
            ... build simulator & run ...
        assert reg.value("net.tcp.retransmits", ...) > 0
    """
    prev = (_STATE.registry, _STATE.tracer)
    _STATE.registry = registry if registry is not None else Registry()
    _STATE.tracer = tracer if tracer is not None else Tracer()
    try:
        yield _STATE.registry, _STATE.tracer
    finally:
        _STATE.registry, _STATE.tracer = prev


class Probe:
    """Bound instrumentation point: cached series + trace forwarding.

    One probe per instrumented object; all series it creates share the
    ``prefix`` and the fixed ``labels`` given at construction.
    """

    __slots__ = ("prefix", "labels", "_registry", "_tracer", "_cache")

    def __init__(
        self,
        prefix: str,
        labels: Dict[str, Any],
        registry,
        tracer,
    ) -> None:
        self.prefix = prefix
        self.labels = {k: str(v) for k, v in labels.items()}
        self._registry = registry
        self._tracer = tracer
        self._cache: Dict[str, Any] = {}

    # -- series accessors (cached) ----------------------------------------
    def _label_names(self):
        return tuple(sorted(self.labels))

    def counter(self, name: str):
        s = self._cache.get(name)
        if s is None:
            metric = self._registry.counter(
                f"{self.prefix}.{name}", self._label_names()
            )
            s = metric.labels(**self.labels)
            self._cache[name] = s
        return s

    def gauge_series(self, name: str):
        key = f"g:{name}"
        s = self._cache.get(key)
        if s is None:
            metric = self._registry.gauge(
                f"{self.prefix}.{name}", self._label_names()
            )
            s = metric.labels(**self.labels)
            self._cache[key] = s
        return s

    def histogram_series(self, name: str, buckets=None):
        key = f"h:{name}"
        s = self._cache.get(key)
        if s is None:
            kwargs = {} if buckets is None else {"buckets": buckets}
            metric = self._registry.histogram(
                f"{self.prefix}.{name}", self._label_names(), **kwargs
            )
            s = metric.labels(**self.labels)
            self._cache[key] = s
        return s

    # -- convenience verbs -------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        self.gauge_series(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram_series(name).observe(value)

    def event(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Emit a trace event (probe labels are merged into the fields)."""
        if self.labels:
            merged = dict(self.labels)
            merged.update(fields)
            fields = merged
        self._tracer.emit(kind, t=t, **fields)


def probe(subsystem: str, **labels: Any) -> Optional[Probe]:
    """A probe bound to the active session, or ``None`` outside one.

    Call once at object construction and keep the result; hot paths then
    pay only a ``None`` check when observability is off.
    """
    if _STATE.registry is None:
        return None
    return Probe(subsystem, labels, _STATE.registry, _STATE.tracer)
