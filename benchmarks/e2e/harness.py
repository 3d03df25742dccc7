"""One benchmark workload in one fresh interpreter.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  The process imports ``repro``,
sets the workload up, prints ``ready`` on stdout, builds its inputs
from ``--seed``, then runs the workload's pass -- a fixed list of
missions or composites -- again and again until ``--seconds`` have
elapsed, checking every output.  Its last stdout line is one JSON
object with the run's metrics, counts and failures.

The load is a closed loop with one client: the next mission or
composite starts when the previous one returns, on the serial uplink
path.  Every pass repeats the same inputs, so each pass after the first
must reproduce the first pass's digests exactly; a pass that does not
counts as failed.

With ``--trace 1`` passes alternate untraced and traced (wrapped by
:mod:`spans`), giving per-layer metrics and the tracing overhead from
the same process.

Every timing is scaled to a quiet reference host: it is multiplied by
``REF_PROBE_S`` over the :func:`host_probe` seconds measured around it.
On the shared 2-CPU host this benchmark was written on, one mission's
wall time drifted by up to 60 % within minutes as other tenants loaded
the machine, and the probe -- a fixed slice of interpreter and
small-array NumPy work that touches no repro code -- slowed with it.
The unscaled values and the median scale stay in the result.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

WORKLOADS = ("corpus", "wide-conv", "wide-turbo", "cdma-return")

#: host_probe() seconds on the quiet reference host (2-CPU x86-64,
#: CPython 3.11, NumPy 2.4); a timing's scale is this over the probe
REF_PROBE_S = 0.0041
#: a probe runs between units once this many seconds have passed
PROBE_EVERY_S = 0.5

#: wide missions: the spec's carrier maximum, full occupancy, no faults.
#: 16 dB clear-sky C/N keeps every block regenerating at every seed, so
#: the workload measures throughput, not link margin.  Each mission
#: takes about 1.2 s: probes between missions no further apart than
#: that track the host's speed to 2-3 % over a run, where 2.4 s
#: missions left 5 %; world build stays at 4-5 % of a mission.
WIDE_CARRIERS = 8
WIDE_CN_DB = 16.0
WIDE_FRAMES = {"wide-conv": 120, "wide-turbo": 60}
WIDE_MISSIONS = 4

#: cdma-return: 8 users at SF64, 128 bits each, noise sigma 0.02.  At
#: sigma 0.05 about one composite in 3,000 had a user acquired at a
#: false code phase (2 of 60 seeds failed a run); at 0.02 none of
#: 30,000 composites (seeds 0-299) did
CDMA_USERS = 8
CDMA_BITS = 128
CDMA_SIGMA = 0.02
CDMA_POOL = 100


@dataclasses.dataclass
class UnitResult:
    """One mission or one composite, as measured and checked."""

    seconds: float
    frames: int
    bursts: int
    delivered: int
    offered: int
    digest: str
    failures: List[str]
    #: host-speed factor applied to ``seconds`` (set by timed_loop)
    scale: float = 1.0


class Missions:
    """A pass of missions driven through ``ScenarioRunner``."""

    def __init__(self, workload: str, seed: int, tiny: bool = False) -> None:
        from repro.scenarios import (
            LinkBudget,
            ReconfigAction,
            ScenarioSpec,
            canonical_scenarios,
        )
        from repro.sim import derive_seed

        self.golden: Dict[str, str] = {}
        self.check_golden = workload == "corpus" and seed == 0
        if workload == "corpus":
            specs = canonical_scenarios()
            if seed != 0:
                specs = [
                    dataclasses.replace(s, seed=derive_seed(seed, "bench", s.name))
                    for s in specs
                ]
            self.specs = specs[:2] if tiny else specs
            self.warmup = ScenarioSpec(name="warmup", frames=2)
            return
        reconfigs = ()
        if workload == "wide-turbo":
            reconfigs = (
                ReconfigAction(frame=1, equipment="decod0", function="decod.turbo"),
            )
        shape = dict(
            num_carriers=WIDE_CARRIERS,
            link=LinkBudget(base_cn_db=WIDE_CN_DB),
            reconfigs=reconfigs,
        )
        self.specs = [
            ScenarioSpec(
                name=f"{workload}-{i}",
                frames=4 if tiny else WIDE_FRAMES[workload],
                seed=derive_seed(seed, workload, str(i)),
                **shape,
            )
            for i in range(WIDE_MISSIONS)
        ]
        self.warmup = ScenarioSpec(name=f"{workload}-warmup", frames=2, **shape)

    def setup(self) -> None:
        """First world build plus a 2-frame warm-up mission."""
        from repro.scenarios import ScenarioRunner

        result = ScenarioRunner(self.warmup).run()
        if not result.completed:
            raise RuntimeError(f"warm-up mission failed: {result.error}")

    def prepare(self) -> None:
        """Load the golden trace hashes the seed-0 corpus must match."""
        if self.check_golden:
            from repro.scenarios import default_golden_dir, load_corpus

            corpus = load_corpus(default_golden_dir())
            self.golden = {name: rec.trace_hash for name, rec in corpus.items()}

    @property
    def units(self) -> list:
        return self.specs

    def run(self, spec) -> UnitResult:
        from repro.scenarios import ScenarioRunner, result_violations

        t0 = time.perf_counter()
        result = ScenarioRunner(spec).run()
        seconds = time.perf_counter() - t0
        m = result.metrics
        failures = [f"{spec.name}: {v}" for v in result_violations(result)]
        if result.completed and m["corrupt"]:
            failures.append(f"{spec.name}: {m['corrupt']} corrupt blocks")
        if self.check_golden:
            want = self.golden.get(spec.name)
            if want != result.trace_hash:
                failures.append(
                    f"{spec.name}: trace hash {result.trace_hash[:12]} != "
                    f"golden {str(want)[:12]}"
                )
        return UnitResult(
            seconds=seconds,
            frames=spec.frames,
            bursts=m["attempted"] + m["keepalive"],
            delivered=m["delivered"],
            offered=m["attempted"],
            digest=f"{spec.name}:{result.trace_hash}",
            failures=failures,
        )


class ReturnLink:
    """A pass of 8-user CDMA composites through ``process_return_link``."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.count = 3 if tiny else CDMA_POOL
        self.inputs: list = []

    def _composites(self, label: str, count: int) -> list:
        from repro.dsp.cdma import CdmaReturnBank
        from repro.sim import RngRegistry, derive_seed

        rng = RngRegistry(derive_seed(self.seed, "cdma-return", label)).stream(
            "inputs"
        )
        # the terminals share the payload modem's chip-level front end
        base = self.payload.demods[0].behaviour().config
        bank = CdmaReturnBank.for_users(CDMA_USERS, base)
        out = []
        for _ in range(count):
            sent = [
                rng.integers(0, 2, CDMA_BITS).astype(np.uint8)
                for _ in range(CDMA_USERS)
            ]
            comp = bank.transmit(sent)
            comp = comp + CDMA_SIGMA * (
                rng.standard_normal(len(comp)) + 1j * rng.standard_normal(len(comp))
            )
            out.append((comp, sent))
        return out

    def setup(self) -> None:
        """Boot a payload carrying ``modem.cdma`` at SF64; one warm-up call."""
        from repro.core import PayloadConfig, RegenerativePayload
        from repro.core.registry import default_registry
        from repro.dsp.cdma import CdmaConfig

        registry = default_registry(cdma_config=CdmaConfig(sf=64))
        cfg = PayloadConfig(
            num_carriers=1, fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32
        )
        self.payload = RegenerativePayload(cfg, registry)
        self.payload.boot(modem="modem.cdma")
        for comp, _sent in self._composites("warmup", 1):
            self.payload.process_return_link(comp, CDMA_USERS, CDMA_BITS)

    def prepare(self) -> None:
        """Synthesize the pass's composites (outside every timing)."""
        self.inputs = self._composites("pass", self.count)

    @property
    def units(self) -> list:
        return self.inputs

    def run(self, unit) -> UnitResult:
        comp, sent = unit
        t0 = time.perf_counter()
        out = self.payload.process_return_link(comp, CDMA_USERS, CDMA_BITS)
        seconds = time.perf_counter() - t0
        ok = sum(
            bool(np.array_equal(got, want)) for got, want in zip(out["bits"], sent)
        )
        failures = []
        if ok != CDMA_USERS:
            failures.append(f"composite: {CDMA_USERS - ok} users not bit-exact")
        digest = hashlib.sha256(
            b"".join(np.asarray(b, dtype=np.uint8).tobytes() for b in out["bits"])
        ).hexdigest()
        return UnitResult(
            seconds=seconds,
            frames=1,
            bursts=CDMA_USERS,
            delivered=ok,
            offered=CDMA_USERS,
            digest=digest,
            failures=failures,
        )


def make_workload(name: str, seed: int, tiny: bool = False):
    """The workload object for ``name`` (``tiny`` shrinks it for tests)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if name == "cdma-return":
        return ReturnLink(seed, tiny)
    return Missions(name, seed, tiny)


_PROBE_X = np.linspace(0.0, 1.0, 64) + 0j


def host_probe() -> float:
    """Seconds a fixed slice of interpreter and small-array NumPy work
    takes on the host right now (best of three; touches no repro code)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        for _ in range(400):
            np.exp(1j * np.abs(_PROBE_X) ** 2).sum()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclasses.dataclass
class Pass:
    units: List[UnitResult]
    traced: bool

    def seconds(self, scaled: bool = True) -> float:
        return sum(u.seconds * (u.scale if scaled else 1.0) for u in self.units)

    def rate(self, attr: str, scaled: bool = True) -> float:
        return sum(getattr(u, attr) for u in self.units) / self.seconds(scaled)


def timed_loop(workload, seconds: float, recorder=None) -> List[Pass]:
    """Run whole passes until ``seconds`` have elapsed (at least one;
    with a recorder at least two, alternating untraced and traced).

    A :func:`host_probe` runs before the first unit, between units once
    ``PROBE_EVERY_S`` has passed, and after the last; each unit's
    ``scale`` comes from the two probes around it.
    """
    from spans import instrument

    passes: List[Pass] = []
    starts: List[float] = []
    probes = [(time.perf_counter(), host_probe())]
    start = probes[0][0]
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        results = []
        with instrument(recorder) if traced else nullcontext():
            for unit in workload.units:
                if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                    probes.append((time.perf_counter(), host_probe()))
                if traced:
                    recorder.trace_id = len(starts)
                starts.append(time.perf_counter())
                results.append(workload.run(unit))
        passes.append(Pass(results, traced))
        done = time.perf_counter() - start >= seconds
        if done and (recorder is None or len(passes) >= 2):
            break
    probes.append((time.perf_counter(), host_probe()))
    times = [t for t, _ in probes]
    units = [u for p in passes for u in p.units]
    for u, at in zip(units, starts):
        i = bisect.bisect_right(times, at)
        u.scale = 2.0 * REF_PROBE_S / (probes[i - 1][1] + probes[i][1])
    return passes


def check_passes(passes: List[Pass]) -> Tuple[int, List[str]]:
    """Failed unit count and messages: each unit's own checks, plus its
    output digest against the same unit in pass 0."""
    first = [u.digest for u in passes[0].units]
    failed, messages = 0, []
    for p, ps in enumerate(passes):
        for u, want in zip(ps.units, first):
            msgs = list(u.failures)
            if u.digest != want:
                msgs.append(f"pass {p}: output {u.digest[:24]} differs from pass 0")
            failed += bool(msgs)
            messages.extend(msgs)
    return failed, messages


def latencies_ms(passes: List[Pass], scaled: bool = True) -> np.ndarray:
    return np.array(
        [u.seconds * (u.scale if scaled else 1.0) * 1e3 for p in passes for u in p.units]
    )


def end_to_end(passes: List[Pass], scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics except ``setup_s`` (measured by run.py)."""
    first = passes[0].units
    return {
        "frames_per_s": statistics.median(p.rate("frames", scaled) for p in passes),
        "bursts_per_s": statistics.median(p.rate("bursts", scaled) for p in passes),
        "latency_ms_p50": float(np.percentile(latencies_ms(passes, scaled), 50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "delivered_frac": sum(u.delivered for u in first)
        / max(1, sum(u.offered for u in first)),
    }


def per_layer(passes: List[Pass], recorder) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, each per pass."""
    from spans import LAYER_NAMES

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    if len(untraced) > 1:
        untraced = untraced[1:]  # pass 0 may still warm caches
    n = len(traced)
    wall = sum(p.seconds(scaled=False) for p in traced)
    self_s, _durations, covered = recorder.self_times()
    base = statistics.median(p.rate("frames") for p in untraced)
    out: Dict[str, float] = {
        "trace.pass_s": sum(p.seconds() for p in traced) / n,
        "trace.spans": len(recorder.spans) / n,
        "trace.covered_frac": covered / wall,
        "trace.overhead_frac": 1.0
        - statistics.median(p.rate("frames") for p in traced) / base,
    }
    for layer in LAYER_NAMES:
        c = recorder.counts[layer]
        out[f"{layer}.calls"] = c["calls"] / n
        out[f"{layer}.self_frac"] = self_s[layer] / wall
    c = recorder.counts
    out["fpga.memory.bytes"] = c["fpga.memory"].get("bytes", 0) / n
    out["net.simnet.bytes"] = c["net.simnet"].get("bytes", 0) / n
    out["overload.admission.rejected"] = c["overload.admission"].get("rejected", 0) / n
    rx = c["dsp.tdma.receive"]
    out["dsp.tdma.receive.sync_ok_frac"] = (
        1.0 - rx["errors"] / rx["calls"] if rx["calls"] else 0.0
    )
    dec = c["coding.decode"]
    blocks = dec.get("blocks", 0)
    out["coding.decode.blocks_per_call"] = blocks / dec["calls"] if dec["calls"] else 0.0
    out["coding.decode.crc_ok_frac"] = dec.get("crc_ok", 0) / blocks if blocks else 0.0
    return out


def layer_table(recorder, passes: List[Pass]) -> List[dict]:
    """Human-readable per-layer rows: calls and self time per pass, and
    per-call latency percentiles."""
    from spans import LAYER_NAMES

    n = sum(p.traced for p in passes)
    self_s, durations, _ = recorder.self_times()
    rows = []
    for layer in LAYER_NAMES:
        d = np.array(durations[layer]) * 1e3
        rows.append(
            {
                "layer": layer,
                "calls": recorder.counts[layer]["calls"] / n,
                "self_s": self_s[layer] / n,
                "p50_ms": float(np.percentile(d, 50)) if len(d) else None,
                "p99_ms": float(np.percentile(d, 99)) if len(d) else None,
            }
        )
    return rows


def measure(
    workload, seconds: float, trace: bool = False, spans_path: Optional[str] = None
) -> dict:
    """Prepare inputs, run the timed loop, check and summarize it."""
    from spans import SpanRecorder

    workload.prepare()
    recorder = SpanRecorder() if trace else None
    passes = timed_loop(workload, seconds, recorder)
    failed, failures = check_passes(passes)
    first = passes[0].units
    summary = {
        "attempted": sum(len(p.units) for p in passes),
        "failed": failed,
        "failures": failures[:20],
        "trace_digest": hashlib.sha256(
            "\n".join(u.digest for u in first).encode()
        ).hexdigest(),
        "delivered": [sum(u.delivered for u in first), sum(u.offered for u in first)],
        "n": {
            "passes": len(passes),
            "units": sum(len(p.units) for p in passes),
            "frames": sum(u.frames for p in passes for u in p.units),
            "units_per_pass": len(first),
        },
        "metrics": end_to_end(passes),
        "unscaled": end_to_end(passes, scaled=False),
        "scale": statistics.median(u.scale for p in passes for u in p.units),
        # reported, not gated: on short operations the tail follows the
        # host's millisecond jitter more than the program
        "tail_ms": {
            q: float(np.percentile(latencies_ms(passes), q)) for q in (90, 99)
        },
    }
    if recorder is not None:
        summary["metrics"] = per_layer(passes, recorder)
        summary["layers"] = layer_table(recorder, passes)
        if spans_path:
            recorder.write(spans_path)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import repro  # noqa: F401  (set-up time starts with the import)

    workload = make_workload(args.workload, args.seed)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    summary = measure(workload, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
