"""TC/TM control-plane acceptance: the campaign faults x seeds through
the scenario runner, zero invariant violations.

The §3 claim: a payload reconfigured over a lossy TM/TC link never
bricks -- it recovers by retransmission, rollback or its golden image.
:func:`result_violations` checks no hang, exactly-once execution, never
bricked and golden loads on the same frame loop the golden corpus runs;
the asserts below check that each fault really exercised its recovery
path.  The single-datagram retransmission and dead-link bounds live in
``tests/robustness/test_transactions.py``, the flip-link campaign in
``tests/robustness/test_campaign_regressions.py`` and cold-spare
failover in the FDIR sweep's ``demod-latchup`` mission.
"""

import copy
import dataclasses

import pytest

from repro.scenarios import (
    FaultEvent,
    ScenarioSpec,
    catalog_by_name,
    result_violations,
    run_scenario,
    tctm_sweep,
)
from repro.scenarios.runner import _TruncatingUploads

pytestmark = [pytest.mark.chaos, pytest.mark.scenario]

SEEDS = (1, 2, 3, 4, 5)
SHAPES = [spec.name for spec in tctm_sweep([0])]
SAFE_MODE_SHAPES = ("seu-during-load", "truncated-upload")


@pytest.fixture(scope="module")
def sweep():
    return {(spec.name, spec.seed): run_scenario(spec) for spec in tctm_sweep(SEEDS)}


def tampered(result, **metrics):
    """``result`` with top-level metrics replaced."""
    m = copy.deepcopy(result.metrics)
    m.update(metrics)
    return dataclasses.replace(result, metrics=m)


class TestSweepSpecs:
    def test_five_shapes_per_seed(self):
        specs = tctm_sweep([1, 2])
        assert len(specs) == 10
        assert SHAPES == [
            "decoder-swap",
            "lossy-ground",
            "seu-during-load",
            "truncated-upload",
            "lost-final-ack",
        ]
        for spec in specs:
            spec.validate()

    def test_controls_are_golden_missions_reseeded(self):
        catalog = catalog_by_name()
        for spec in tctm_sweep([4])[:2]:
            assert dataclasses.replace(spec, seed=0) == catalog[spec.name]

    def test_campaign_faults_spare_the_traffic_plane(self):
        for spec in tctm_sweep([0])[2:]:
            assert spec.fault_onset is None
            assert all(spec.severity(f) == 0.0 for f in range(spec.frames))
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_campaign_fault_magnitudes_are_validated(self):
        def problems(*faults):
            return "\n".join(ScenarioSpec(name="x", faults=faults).problems())

        assert problems(
            FaultEvent(frame=1, kind="seu.load"),
            FaultEvent(frame=1, kind="upload.truncate", magnitude=1),
            FaultEvent(frame=1, kind="tm.drop", magnitude=2),
        ) == ""
        assert "upset bits" in problems(
            FaultEvent(frame=1, kind="seu.load", magnitude=2.5)
        )
        for kind in ("upload.truncate", "tm.drop"):
            for magnitude in (0, 1.5, -1):
                msg = problems(FaultEvent(frame=1, kind=kind, magnitude=magnitude))
                assert "uploads or replies >= 1" in msg, (kind, magnitude)

    def test_truncating_store_keeps_the_upload_bound(self):
        store = _TruncatingUploads(max_files=2)
        store.truncate = 2
        store["a"] = b"x" * 100
        store["b"] = b"y" * 100
        store["c"] = b"z" * 100
        assert len(store["b"]) == 50
        assert len(store["c"]) == 100  # budget spent: lands whole
        assert "a" not in store and store.evicted == 1


class TestTctmSweep:
    def test_zero_violations(self, sweep):
        assert sorted(sweep) == sorted((n, s) for n in SHAPES for s in SEEDS)
        bad = [
            f"{name}/{seed}: {msg}"
            for (name, seed), result in sweep.items()
            for msg in result_violations(result)
        ]
        assert bad == [], "\n".join(bad)

    def test_control_makes_no_retransmits(self, sweep):
        for seed in SEEDS:
            m = sweep["decoder-swap", seed].metrics
            assert m["ncc"]["retransmits"] == 0
            assert m["personalities"]["decod0"] == "decod.turbo"

    @pytest.mark.parametrize("shape", SAFE_MODE_SHAPES)
    def test_two_rollbacks_then_safe_mode_on_golden(self, sweep, shape):
        for seed in SEEDS:
            m = sweep[shape, seed].metrics
            assert [r["success"] for r in m["reconfigs"]] == [False] * 3
            assert all(r["rolled_back"] for r in m["reconfigs"])
            assert m["safe_mode"] == ["demod0"]
            assert m["personalities"]["demod0"] == "modem.tdma"  # golden
            assert "golden_load_failures" not in m

    def test_lost_final_ack_retransmits_and_dedups(self, sweep):
        for seed in SEEDS:
            result = sweep["lost-final-ack", seed]
            m = result.metrics
            assert m["ncc"]["retransmits"] >= 1
            assert m["gateway"]["dedup_hits"] >= 1
            assert result.kind_counts["gateway.dedup"] == m["gateway"]["dedup_hits"]
            assert m["gateway"]["executed"] == m["ncc"]["tc_issued"]
            assert m["personalities"]["decod0"] == "decod.turbo"


class TestCheckerCatches:
    """Each control-plane invariant fires on a doctored result."""

    def test_bricked_equipment(self, sweep):
        result = sweep["seu-during-load", 1]
        personalities = dict(result.metrics["personalities"], demod0=None)
        msgs = result_violations(tampered(result, personalities=personalities))
        assert msgs == ["bricked: ['demod0'] carry no personality after a failed campaign"]

    def test_failed_campaign_without_a_campaign_fault(self, sweep):
        result = sweep["seu-during-load", 1]
        clean = dataclasses.replace(result, spec=dataclasses.replace(result.spec, faults=()))
        msgs = result_violations(clean)
        assert any("reconfiguration campaigns failed" in m for m in msgs)

    def test_safe_mode_without_golden_image(self, sweep):
        result = sweep["truncated-upload", 1]
        msgs = result_violations(tampered(result, golden_load_failures=["demod0"]))
        assert msgs == ["safe mode without its golden image: ['demod0']"]


class TestDeterminism:
    def test_same_seed_same_trace(self, sweep):
        spec = tctm_sweep([3])[-1]
        again = run_scenario(spec)
        first = sweep[spec.name, 3]
        assert again.trace_hash == first.trace_hash
        assert again.metrics == first.metrics
