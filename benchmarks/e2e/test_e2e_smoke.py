"""Smoke tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Every workload runs at a tiny size in-process; one short ``run.py``
run checks the printed schema against ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=0):
    wl = harness.make_workload(name, seed, tiny=True)
    wl.setup()
    return wl


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_every_workload_runs_clean_at_tiny_size(name):
    summary = harness.measure(tiny(name, seed=3), seconds=0.0)
    assert summary["failed"] == 0, summary["failures"]
    assert summary["attempted"] == summary["n"]["units"] > 0
    metrics = summary["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]} - {"setup_s"}
    assert all(v > 0 for v in metrics.values()), metrics
    assert metrics["delivered_frac"] == 1.0


def test_seed0_corpus_matches_golden_hashes():
    wl = tiny("corpus", seed=0)
    wl.prepare()
    assert wl.check_golden and set(wl.golden) >= {s.name for s in wl.specs}
    result = wl.run(wl.specs[0])
    assert result.failures == []
    # a wrong golden hash is reported as a failure, not ignored
    wl.golden[wl.specs[0].name] = "0" * 64
    assert wl.run(wl.specs[0]).failures


def boundaries():
    """Every wrapped attribute as it is right now."""
    out = {}
    for _layer, module, path, _measure in spans.LAYERS:
        owner, name = spans.resolve(module, path)
        out[path] = vars(owner)[name]
    return out


def test_traced_run_keeps_outputs_and_restores_originals():
    originals = boundaries()
    plain = harness.measure(tiny("wide-conv"), seconds=0.0)
    traced = harness.measure(tiny("wide-conv"), seconds=0.0, trace=True)
    # the traced pass must also reproduce the untraced pass before it
    assert traced["failed"] == 0, traced["failures"]
    assert traced["trace_digest"] == plain["trace_digest"]
    assert traced["delivered"] == plain["delivered"]
    after = boundaries()
    assert all(after[path] is fn for path, fn in originals.items())
    metrics = traced["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    # one uplink per frame: 4-frame missions in the tiny pass
    assert metrics["core.payload.uplink.calls"] == 4 * harness.WIDE_MISSIONS
    assert metrics["coding.decode.blocks_per_call"] == harness.WIDE_CARRIERS
    assert abs(metrics["trace.covered_frac"] - 1.0) < 0.05


def test_spans_nest_and_self_times_add_up():
    rec = spans.SpanRecorder()
    leaf = rec.wrap("dsp.adc", lambda: 1, None)
    root = rec.wrap("sim.kernel", lambda: leaf() + leaf(), None)
    assert root() == 2
    assert [(s[0], s[1]) for s in rec.spans] == [
        ("sim.kernel", -1),
        ("dsp.adc", 0),
        ("dsp.adc", 0),
    ]
    self_s, _durations, covered = rec.self_times()
    assert sum(self_s.values()) == pytest.approx(covered)
    assert rec.counts["dsp.adc"]["calls"] == 2


def test_run_py_prints_the_benchmark_schema(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cdma-return",
         "--seed", "2", "--seconds", "0.1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    assert len(BENCH["workloads"]) == len(harness.WORKLOADS)
    assert [w["name"] for w in BENCH["workloads"]] == list(harness.WORKLOADS)
    saved = json.loads((tmp_path / "cdma-return-seed2-trace0.json").read_text())
    assert len(saved["setup_samples"]) == 3 and len(saved["trace_digest"]) == 64


def test_run_py_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "corpus"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
