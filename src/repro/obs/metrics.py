"""Labeled metrics: Counter / Gauge / Histogram behind a Registry.

The observability layer must cost nothing when it is switched off and
stay **deterministic** when it is on, so this module is deliberately
zero-dependency and allocation-light:

- a :class:`Registry` owns named metrics; each metric owns label-keyed
  *series* (``metric.labels(link="uplink").inc()``), and every update
  goes through a series (a label-less metric's one series is
  ``metric.labels()``);
- :meth:`Registry.export` produces a plain nested dict (JSON-able,
  sorted-key friendly, isolated from later updates) so benchmarks can
  diff counters across runs;
- label cardinality is bounded: past ``max_series`` distinct label
  combinations a metric folds further combinations into a single
  ``__overflow__`` series instead of growing (or crashing) without
  bound -- instrumentation must never take the host down.

While observability is off no registry exists at all: instrumented code
holds a ``None`` probe (see :mod:`repro.obs.probes`).

Naming convention (see ``docs/observability.md``): dotted
``<subsystem>.<noun>`` series names, e.g. ``sim.kernel.events_fired``,
``net.link.dropped``, ``core.reconfig.rollbacks``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "Registry",
    "DEFAULT_BUCKETS",
]


class MetricError(ValueError):
    """Misuse of the metrics API (name clash, bad labels, bad value)."""


#: Default histogram bucket upper bounds (seconds-flavoured log scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0, float("inf"),
)

_OVERFLOW_KEY = "__overflow__"


class _Metric:
    """Base: a named family of label-keyed series."""

    kind = "metric"

    def __init__(
        self, name: str, label_names: Sequence[str] = (), max_series: int = 256
    ) -> None:
        if not name:
            raise MetricError("metric name must be non-empty")
        if max_series < 1:
            raise MetricError("max_series must be >= 1")
        self.name = name
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.max_series = max_series
        self._series: Dict[str, object] = {}
        self.overflowed = 0  # label combinations folded into __overflow__

    # -- series management -------------------------------------------------
    def _series_key(self, label_values: Dict[str, object]) -> str:
        if set(label_values) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        return "|".join(str(label_values[k]) for k in self.label_names)

    def _new_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **label_values):
        """The series for this label combination (created on first use)."""
        key = self._series_key(label_values)
        s = self._series.get(key)
        if s is None:
            if len(self._series) >= self.max_series and key != _OVERFLOW_KEY:
                # cardinality guard: fold the long tail into one series
                self.overflowed += 1
                return self.labels_overflow()
            s = self._new_series()
            self._series[key] = s
        return s

    def labels_overflow(self):
        """The shared overflow series (created on demand)."""
        s = self._series.get(_OVERFLOW_KEY)
        if s is None:
            s = self._new_series()
            self._series[_OVERFLOW_KEY] = s
        return s

    def export(self) -> dict:
        """Fresh, JSON-able dict of every series of this metric."""
        return {
            "type": self.kind,
            "label_names": list(self.label_names),
            "series": {k: s.export() for k, s in sorted(self._series.items())},
        }


class _CounterSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise MetricError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def export(self):
        return self.value


class Counter(_Metric):
    """Monotonically increasing count (events, frames, retransmissions)."""

    kind = "counter"

    def _new_series(self) -> _CounterSeries:
        return _CounterSeries()


class _GaugeSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def export(self):
        return self.value


class Gauge(_Metric):
    """Point-in-time level (queue depth, window size, live processes)."""

    kind = "gauge"

    def _new_series(self) -> _GaugeSeries:
        return _GaugeSeries()


class _HistogramSeries:
    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self.counts[i] += 1
                break

    def export(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {
                ("inf" if b == float("inf") else repr(b)): c
                for b, c in zip(self.buckets, self.counts)
            },
        }


class Histogram(_Metric):
    """Distribution of observations (latencies, outage windows, sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        label_names: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        max_series: int = 256,
    ) -> None:
        super().__init__(name, label_names, max_series)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self.buckets)


class Registry:
    """Metric registry of one observability session, with export.

    Re-requesting a metric with the same name returns the existing
    instance; re-requesting with a *different* type or label set raises
    :class:`MetricError` (two subsystems silently sharing a name is a
    bug worth failing loudly on).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # -- factories ---------------------------------------------------------
    def _get_or_create(self, cls, name: str, label_names, **kwargs) -> _Metric:
        m = self._metrics.get(name)
        if m is not None:
            if type(m) is not cls or m.label_names != tuple(label_names):
                raise MetricError(
                    f"metric {name!r} already registered as {m.kind} "
                    f"with labels {m.label_names}"
                )
            return m
        m = cls(name, label_names, **kwargs)
        self._metrics[name] = m
        return m

    def counter(self, name: str, label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, label_names)

    def gauge(self, name: str, label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, label_names)

    def histogram(
        self,
        name: str,
        label_names: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, label_names, buckets=buckets)

    # -- inspection --------------------------------------------------------
    def value(self, name: str, /, **label_values):
        """Convenience for tests: current value of one series (or None).

        Counters/gauges return the number; histograms return the export
        dict.  Unknown metrics and unseen label combinations return
        ``None`` rather than raising, so assertions read naturally.
        (``name`` is positional-only so a label may itself be called
        ``name``.)
        """
        m = self._metrics.get(name)
        if m is None:
            return None
        try:
            key = m._series_key(label_values)
        except MetricError:
            return None
        s = m._series.get(key)
        return None if s is None else s.export()

    def export(self) -> dict:
        """Fresh nested dict of every metric (safe to mutate / JSON-dump)."""
        return {name: m.export() for name, m in sorted(self._metrics.items())}
