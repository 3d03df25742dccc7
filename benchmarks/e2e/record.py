"""Record sets of benchmark runs, with host facts, into one JSON file.

    python3 benchmarks/e2e/record.py OUT.json [--sets 2] [--seeds 0-9]
                                     [--workload W ...]

Each set runs every workload once per seed through ``run.py`` (seeds
outer, workloads inner, so slow spells on the host spread over all
workloads), untraced.  Then one traced run per workload at the second
seed (the only one, if just one is given) gives the per-layer table and
the tracing overhead.  The file is rewritten after every run, so an
interrupted recording keeps what it measured.  Compare sets with
``compare.py OUT.json@0 OUT.json@1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run


def host_facts() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=run.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args(argv)

    bench = run.load_benchmark()
    seconds = bench["run_seconds"]
    workloads = args.workload or list(run.WORKLOADS)
    scratch = run.HERE / "out"
    scratch.mkdir(exist_ok=True)
    record = {
        "format": 1,
        "commit": commit(),
        "host": host_facts(),
        "run_seconds": seconds,
        "sets": [],
        "traced": [],
    }

    def save(result: dict, into: list) -> None:
        result.pop("reported", None)
        into.append(result)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        m = result["metrics"]
        key = "frames_per_s" if "frames_per_s" in m else "trace.overhead_frac"
        print(
            f"{result['workload']:<12} seed {result['seed']:>3} trace "
            f"{result['trace']}: {key} {m[key]:.4g}, failed {result['failed']}",
            flush=True,
        )

    for _ in range(args.sets):
        record["sets"].append({"runs": []})
        for seed in args.seeds:
            for w in workloads:
                result = run.run_workload(w, seed, seconds, False, scratch)
                save(result, record["sets"][-1]["runs"])
    traced_seed = args.seeds[min(1, len(args.seeds) - 1)]
    for w in workloads:
        result = run.run_workload(w, traced_seed, seconds, True, scratch)
        save(result, record["traced"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
