"""repro.obs -- deterministic observability for the reproduction.

Three small, zero-dependency pieces:

- :mod:`repro.obs.metrics` -- labeled Counter/Gauge/Histogram series
  behind a :class:`Registry` with export-to-dict;
- :mod:`repro.obs.trace` -- a ring-buffer structured event
  :class:`Tracer` keyed on simulated time, with a canonical, hashable
  serialization (the *golden-trace* regression oracle);
- :mod:`repro.obs.probes` -- the :func:`session` switch and the
  :func:`probe` hook instrumented subsystems call at construction.

Observability is **off outside a session** and costs a ``None`` check
per hot operation while off.  Typical test usage::

    from repro import obs

    with obs.session() as (registry, tracer):
        sim = Simulator()          # instrumented objects built inside
        ...                        # the session pick up live probes
        sim.run(until=3600)

    assert registry.value("net.tcp.retransmits", conn=...) > 0
    assert tracer.hash() == GOLDEN_HASH

See ``docs/observability.md`` for the naming conventions and the list
of instrumented series.
"""

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricError,
    Registry,
)
from .probes import Probe, probe, session
from .trace import TraceEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "Probe",
    "Registry",
    "TraceEvent",
    "Tracer",
    "probe",
    "session",
]
