"""End-to-end benchmark of the regenerative payload reproduction.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out DIR]

Runs one workload (or, without ``--workload``, all four in turn), each
in fresh interpreters started from this checkout's ``src/``: a few that
only set up (their median start-to-ready time is ``setup_s``) and one
that sets up and then runs the timed closed loop of ``harness.py``.
Prints every metric named in ``BENCHMARK.json`` with its unit, checks
every output, and ends with one JSON line::

    {"correct": true, "attempted": 112, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer metrics of a traced run (see ``spans.py``).  Timings are
scaled to a quiet reference host by a probe measured next to them (see
``harness.py``); the unscaled values are kept too.  The full result
-- sample counts, the output digest, failures, per-layer table -- is
also written to ``DIR/<workload>-seed<S>-trace<T>.json``, and a traced
run's spans to ``DIR/spans-<workload>-seed<S>.json``.

Exit status: 0 when every output checked correct, 1 when some did not,
2 when the benchmark could not run (for example outside a full
checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import REF_PROBE_S, WORKLOADS, host_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
HARNESS = HERE / "harness.py"
BENCHMARK = ROOT / "BENCHMARK.json"

#: set-up-only interpreters per run; with the measured run's own set-up
#: they give three samples, of which setup_s is the median
SETUP_PROBES = 2
#: every run, set-up included, ends within this many seconds
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong output)."""


def load_benchmark() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment for workload interpreters: this checkout's ``src``
    first on the path, fixed hashing, BLAS/OpenMP pools capped at the
    CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _read_ready(proc: subprocess.Popen, deadline: float) -> bytes:
    """Wait for the child's ``ready`` line; return any bytes after it."""
    fd = proc.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("workload did not finish setting up in time")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise BenchError(f"workload exited during set-up ({proc.wait()})")
        buf += chunk
    line, rest = buf.split(b"\n", 1)
    if line.strip() != b"ready":
        raise BenchError(f"unexpected output from workload: {line[:200]!r}")
    return rest


def spawn(args: list, deadline: float) -> tuple:
    """Run ``harness.py args`` in a fresh interpreter.

    Returns (seconds from spawn to ready, host-speed scale measured just
    before the spawn, stdout after the ready line).  The child is killed
    and reaped on any error or when ``deadline`` (a ``time.monotonic``
    value) passes.
    """
    scale = REF_PROBE_S / host_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HARNESS), *args],
        stdout=subprocess.PIPE,
        bufsize=0,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        rest = _read_ready(proc, deadline)
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return setup, scale, (rest + out).decode()


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """One benchmark run: set-up probes, then the measured run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [
        spawn([*base, "--seconds", "0", "--setup-only"], deadline)[:2]
        for _ in range(SETUP_PROBES)
    ]
    args = [*base, "--seconds", repr(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.json")]
    setup, scale, out = spawn(args, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload printed no result")
    result = json.loads(lines[-1])
    setups.append((setup, scale))
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(s * k for s, k in setups)
        result["unscaled"]["setup_s"] = statistics.median(s for s, _ in setups)
    result.update(
        workload=workload,
        seed=seed,
        trace=int(trace),
        seconds=seconds,
        setup_samples=setups,
        correct=result["failed"] == 0,
    )
    return result


def reported(result: dict, bench: dict) -> dict:
    """The metrics ``BENCHMARK.json`` lists for this kind of run, with units."""
    specs = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"run did not measure {missing}")
    return {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in specs
    }


def print_summary(result: dict, metrics: dict) -> None:
    n = result["n"]
    print(
        f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{n['units']} units in {n['passes']} passes of {n['units_per_pass']}, "
        f"{n['frames']} frames; failed {result['failed']}/{result['attempted']}; "
        f"trace_digest {result['trace_digest'][:16]}"
    )
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if not result["trace"]:
        tail = result["tail_ms"]
        print(
            f"  latency p90 {tail['90']:.6g} ms, p99 {tail['99']:.6g} ms "
            f"(n={n['units']}, not gated); host speed scale {result['scale']:.3f}"
        )
    for row in result.get("layers", ()):
        p50 = "-" if row["p50_ms"] is None else f"{row['p50_ms']:.3f}"
        p99 = "-" if row["p99_ms"] is None else f"{row['p99_ms']:.3f}"
        print(
            f"  {row['layer']:<26} calls/pass {row['calls']:>9.1f}  "
            f"self s/pass {row['self_s']:>9.5f}  p50 {p50} ms  p99 {p99} ms"
        )
    for failure in result["failures"]:
        print(f"  FAIL {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for w in workloads:
            result = run_workload(w, args.seed, seconds, bool(args.trace), args.out)
            result["reported"] = reported(result, bench)
            path = args.out / f"{w}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            print_summary(result, result["reported"])
            results.append(result)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["reported"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in results for k, v in r["reported"].items()
        }
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
