"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json[@N] B.json[@N]

``A`` is the parent, ``B`` the change.  Each argument is a record file
written by ``record.py`` (``@N`` picks its set ``N``; without it every
set in the file is pooled) or a single result file written by
``run.py``.  Prints one row per workload and end-to-end metric:

- ``worse``  -- B's median is worse than A's by more than the bound;
- ``better`` -- B's median is better than A's by more than the bound;
- ``same``   -- the medians are within the bound of each other;
- ``unresolved`` -- either side's run-to-run spread (interquartile
  range over median) exceeds the bound, or a side has fewer than two
  runs, and not every run of B reads better than every run of A.

Simulated outputs must not move at all: for every (workload, seed) run
on both sides the ``trace_digest`` and the delivered-block counts must
be identical, and no run may have failed.  Exit status 1 when a row is
``worse`` or any of those checks fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(arg: str) -> list:
    path, _, index = arg.partition("@")
    data = json.loads(Path(path).read_text())
    if "sets" not in data:
        return [data]
    sets = data["sets"] if not index else [data["sets"][int(index)]]
    return [run for s in sets for run in s["runs"]]


def spread(values: list) -> float:
    """Interquartile range over median (``inf`` below two values)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(row verdict, relative change of B's median, positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / ma
    if max(spread(a), spread(b)) > bound:
        if all(sign * y > sign * x for x in a for y in b):
            return "better", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def compare(runs_a: list, runs_b: list, metrics: list) -> tuple:
    """(rows, problems): one row per workload x metric, plus every
    digest/delivery mismatch or failed run."""
    by_a, by_b = defaultdict(list), defaultdict(list)
    for r in runs_a:
        by_a[r["workload"]].append(r)
    for r in runs_b:
        by_b[r["workload"]].append(r)
    rows, problems = [], []
    for workload in sorted(set(by_a) & set(by_b)):
        for m in metrics:
            a = [r["metrics"][m["name"]] for r in by_a[workload]]
            b = [r["metrics"][m["name"]] for r in by_b[workload]]
            v, change = verdict(a, b, m["better"], m["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "a": statistics.median(a),
                    "b": statistics.median(b),
                    "change": change,
                    "spread_a": spread(a),
                    "spread_b": spread(b),
                    "bound": m["bound"],
                    "verdict": v,
                    "n": (len(a), len(b)),
                }
            )
    for r in runs_a + runs_b:
        if r["failed"]:
            problems.append(
                f"{r['workload']} seed {r['seed']}: {r['failed']} failed operations"
            )
    seen = {(r["workload"], r["seed"]): r for r in runs_a}
    for r in runs_b:
        ref = seen.get((r["workload"], r["seed"]))
        if ref is None:
            continue
        for key in ("trace_digest", "delivered"):
            if ref[key] != r[key]:
                problems.append(
                    f"{r['workload']} seed {r['seed']}: {key} {ref[key]} -> {r[key]}"
                )
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, problems = compare(
        load_runs(argv[0]), load_runs(argv[1]), bench["end_to_end"]
    )
    print(
        f"{'workload':<12} {'metric':<15} {'A':>11} {'B':>11} {'change':>8} "
        f"{'spreadA':>8} {'spreadB':>8} {'bound':>6}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:<12} {r['metric']:<15} {r['a']:>11.5g} {r['b']:>11.5g} "
            f"{r['change']:>+8.2%} {r['spread_a']:>8.2%} {r['spread_b']:>8.2%} "
            f"{r['bound']:>6.0%}  {r['verdict']}"
        )
    for p in problems:
        print(f"MISMATCH {p}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or problems else 0


if __name__ == "__main__":
    sys.exit(main())
