"""Outside-in span recorder for the traced benchmark run.

Each layer boundary is the public callable a caller resolves at call
time: the class attribute for a method, the importing module's global
for a function (``repro.scenarios.runner.multiplex_carriers``, not
``repro.dsp.demux.multiplex_carriers``).  :func:`instrument` replaces
those attributes with timing wrappers and puts every original back on
exit, so nothing under ``src/`` knows it is traced and an untraced run
executes the exact code a user runs.

A span is ``(layer, parent span index, trace id, start, end)`` in
``time.perf_counter`` seconds; the trace id is the mission or composite
index the span belongs to.  Spans stay in memory and are written out
once, when the run ends.  A layer's self time is its spans' duration
minus the time their child spans cover.

Only layer boundaries are wrapped, never per-byte helpers: wrapping
``hamming_encode`` (tens of thousands of calls per pass) would inflate
the layer it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


def _decode_counts(args, out) -> Dict[str, int]:
    crc = out["crc_ok"]
    return {
        "blocks": int(args[1].shape[0]),
        "crc_ok": int(np.count_nonzero(crc)) if crc is not None else 0,
    }


#: (layer, module, attribute path, per-call counter or None).  The
#: counter sees the positional arguments (``self`` first for methods)
#: and the return value, and returns increments for the layer's counts.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("scenarios.mission", "repro.scenarios.runner", "ScenarioRunner.run", None),
    ("scenarios.build", "repro.scenarios.runner", "build_traffic_world", None),
    (
        "fpga.memory",
        "repro.fpga.memory",
        "OnboardMemory.store",
        lambda a, out: {"bytes": len(a[2])},
    ),
    (
        "fpga.memory",
        "repro.fpga.memory",
        "OnboardMemory.load",
        lambda a, out: {"bytes": len(out)},
    ),
    ("fpga.device", "repro.fpga.device", "Fpga.configure", None),
    ("dsp.tdma.transmit", "repro.dsp.tdma", "TdmaModem.transmit", None),
    ("coding.encode", "repro.coding.umts", "TransportChain.encode", None),
    (
        "dsp.demux.multiplex",
        "repro.scenarios.runner",
        "multiplex_carriers",
        None,
    ),
    ("dsp.adc", "repro.dsp.adc", "Adc.convert", None),
    (
        "dsp.demux.channelize",
        "repro.dsp.demux",
        "PolyphaseChannelizer.process",
        None,
    ),
    ("dsp.tdma.receive", "repro.dsp.tdma", "TdmaModem.receive", None),
    (
        "coding.decode",
        "repro.coding.umts",
        "TransportChain.decode_batch",
        _decode_counts,
    ),
    (
        "coding.convolutional",
        "repro.coding.convolutional",
        "ConvolutionalCode.decode_batch",
        None,
    ),
    ("coding.turbo", "repro.coding.turbo", "TurboCode.decode_batch", None),
    (
        "core.payload.uplink",
        "repro.core.payload",
        "RegenerativePayload.process_uplink",
        None,
    ),
    (
        "core.payload.return_link",
        "repro.core.payload",
        "RegenerativePayload.process_return_link",
        None,
    ),
    ("dsp.cdma.bank", "repro.dsp.cdma", "CdmaReturnBank.receive", None),
    (
        "fdir.health",
        "repro.robustness.fdir.health",
        "HealthMonitorBank.observe_burst",
        None,
    ),
    (
        "fdir.health",
        "repro.robustness.fdir.health",
        "HealthMonitorBank.observe_decode",
        None,
    ),
    ("fdir.arbiter", "repro.robustness.fdir.arbiter", "FdirArbiter.step", None),
    (
        "fdir.degraded",
        "repro.robustness.fdir.degraded",
        "DegradedModePolicy.update",
        None,
    ),
    (
        "overload.admission",
        "repro.robustness.overload.admission",
        "AdmissionController.admit",
        lambda a, out: {"rejected": int(not out)},
    ),
    (
        "net.simnet",
        "repro.net.simnet",
        "Link.transmit",
        lambda a, out: {"bytes": len(a[2])},
    ),
    ("core.obc", "repro.core.obc", "OnBoardController.execute", None),
    ("sim.kernel", "repro.sim.kernel", "Simulator.step", None),
)

#: layer names in table order, each once
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


def resolve(module: str, path: str) -> Tuple[object, str]:
    """The object that owns ``path``'s last attribute, and that name."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, name


class SpanRecorder:
    """In-memory spans plus per-layer call/error/extra counts."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, Dict[str, int]] = {
            layer: {"calls": 0, "errors": 0} for layer in LAYER_NAMES
        }
        #: mission or composite index stamped on every span opened
        self.trace_id = 0
        self._stack: List[int] = []

    def wrap(self, layer: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts[layer]
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts["errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (layer, parent, recorder.trace_id, start, end)
                counts["calls"] += 1
            if measure is not None:
                for key, inc in measure(args, out).items():
                    counts[key] = counts.get(key, 0) + inc
            return out

        return traced

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, List[float]], float]:
        """Per-layer self seconds, per-layer call durations, and the
        total duration of root spans (the time any span covers)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, parent, _trace, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYER_NAMES}
        durations: Dict[str, List[float]] = {layer: [] for layer in LAYER_NAMES}
        covered = 0.0
        for i, (layer, parent, _trace, start, end) in enumerate(spans):
            dur = end - start
            self_s[layer] += dur - child[i]
            durations[layer].append(dur)
            if parent < 0:
                covered += dur
        return self_s, durations, covered

    def write(self, path: str) -> None:
        """Dump every span as JSON: one ``[layer, parent, trace, start,
        end]`` row per call, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            [layer, parent, trace, round(start - t0, 9), round(end - t0, 9)]
            for layer, parent, trace, start, end in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "parent", "trace", "start", "end"],
                       "spans": rows}, fh, separators=(",", ":"))


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer boundary for the duration of the block."""
    patched = []
    try:
        for layer, module, path, measure in LAYERS:
            owner, name = resolve(module, path)
            # vars() gives the attribute the owner itself defines (the
            # plain function for a method), so restoring it is exact
            original = vars(owner)[name]
            setattr(owner, name, recorder.wrap(layer, original, measure))
            patched.append((owner, name, original))
        yield recorder
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
