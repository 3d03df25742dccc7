"""Demand-plane acceptance: the surge shapes x seeds through the scenario
runner, zero invariant violations.

Every surge mission runs the same frame loop as the golden corpus, with
admission, one bounded queue per class whose heads expire at the class
budget, the brownout ladder and the service circuit breaker; each is
judged by :func:`result_violations` against the run of its clean twin
(:func:`nominal_twin`), which is itself checked as a clean-demand
control.  The expiry rule itself is driven frame by frame on the
runner's demand plane.
"""

import copy
import dataclasses
from types import SimpleNamespace

import pytest

from repro.scenarios import (
    ScenarioSpec,
    SurgeProfile,
    canonical_scenarios,
    nominal_twin,
    overload_sweep,
    result_violations,
    run_scenario,
)
from repro.scenarios.runner import BREAKER_THRESHOLD, _DemandPlane

pytestmark = [pytest.mark.overload, pytest.mark.scenario]

SEEDS = (1, 2, 3, 4, 5)
SHAPES = [spec.name for spec in overload_sweep([0])]


@pytest.fixture(scope="module")
def sweep():
    """(surge run, clean-twin run) per (shape, seed)."""
    return {
        (spec.name, spec.seed): (
            run_scenario(spec),
            run_scenario(nominal_twin(spec)),
        )
        for spec in overload_sweep(SEEDS)
    }


def tampered(result, **overload):
    """``result`` with its overload accounting fields replaced."""
    metrics = copy.deepcopy(result.metrics)
    metrics["overload"].update(overload)
    return dataclasses.replace(result, metrics=metrics)


class TestSweepSpecs:
    def test_four_shapes_per_seed(self):
        specs = overload_sweep([1, 2])
        assert len(specs) == 8
        assert sorted({s.seed for s in specs}) == [1, 2]
        assert SHAPES == [
            "flash-crowd",
            "sustained-10x",
            "surge-rain-fade",
            "surge-during-fdir-recovery",
        ]
        for spec in specs:
            assert spec.surge is not None and spec.surge.multiplier > 1.0
            spec.validate()

    def test_twin_is_clean_demand_without_faults(self):
        for spec in overload_sweep([1]):
            twin = nominal_twin(spec)
            assert twin.surge.multiplier == 1.0
            assert not twin.fades and not twin.faults
            assert not twin.expect_actions
            assert (twin.name, twin.seed, twin.frames) == (
                spec.name,
                spec.seed,
                spec.frames,
            )

    def test_sweep_missions_stay_out_of_the_golden_corpus(self):
        golden = {s.spec_hash() for s in canonical_scenarios()}
        assert not golden & {s.spec_hash() for s in overload_sweep([0])}


@pytest.mark.chaos
class TestOverloadSweep:
    def test_covers_all_shapes_and_seeds(self, sweep):
        assert sorted(sweep) == sorted((n, s) for n in SHAPES for s in SEEDS)
        assert all(r.completed and t.completed for r, t in sweep.values())

    def test_zero_violations(self, sweep):
        bad = [
            f"{name}/{seed}: {msg}"
            for (name, seed), (result, twin) in sweep.items()
            for msg in result_violations(result, nominal=twin)
            + [f"twin: {m}" for m in result_violations(twin)]
        ]
        assert bad == [], "\n".join(bad)

    def test_surge_actually_sheds(self, sweep):
        """The sweep attacks for real: every surge rejected load and
        engaged the brownout ladder."""
        for key, (result, _) in sweep.items():
            ov = result.metrics["overload"]
            assert sum(ov["rejected"].values()) > 0, key
            assert ov["ladder"]["shed_events"] >= 1, key

    def test_breaker_trips_and_recovers(self, sweep):
        for seed in SEEDS:
            result, twin = sweep["surge-during-fdir-recovery", seed]
            breaker = result.metrics["overload"]["breaker"]
            assert 1 <= breaker["trips"] <= 3, seed
            assert breaker["state"] == "closed", seed
            assert breaker["fast_rejects"] >= 1, seed
            assert result.kind_counts["overload.breaker"] >= 3, seed
            assert "breaker" not in twin.metrics["overload"]

    def test_idle_breaker_leaves_no_trace(self, sweep):
        for (name, seed), (result, _) in sweep.items():
            if name == "surge-during-fdir-recovery":
                continue
            assert "breaker" not in result.metrics["overload"], name
            assert "overload.breaker" not in result.kind_counts, name

    def test_fade_sheds_and_restores_carriers(self, sweep):
        for seed in SEEDS:
            m = sweep["surge-rain-fade", seed][0].metrics
            assert m["policy_events"].get("shed", 0) > 0, seed
            assert m["policy_events"].get("restore", 0) > 0, seed
            assert m["final_active"] == 3, seed


class TestCheckerCatches:
    """Each new demand-plane invariant fires on a doctored result."""

    @pytest.fixture(scope="class")
    def pair(self, sweep):
        return sweep["flash-crowd", 1]

    def test_any_starved_class(self, pair):
        result, twin = pair
        served = dict(result.metrics["overload"]["served"], p2=0)
        msgs = result_violations(tampered(result, served=served), nominal=twin)
        assert any("p2 starved" in m for m in msgs)

    def test_p99_sojourn_over_budget(self, pair):
        result, twin = pair
        late = dataclasses.replace(result, demand_sojourns=[9.0] * 10)
        assert any("p99" in m for m in result_violations(late, nominal=twin))

    def test_p0_goodput_below_twin(self, pair):
        result, twin = pair
        rich = tampered(
            twin,
            served=dict(
                twin.metrics["overload"]["served"],
                p0=2 * result.metrics["overload"]["served"]["p0"],
            ),
        )
        msgs = result_violations(result, nominal=rich)
        assert any("p0 goodput" in m for m in msgs)

    def test_clean_demand_that_rejects_or_browns_out(self, pair):
        _, twin = pair
        ov = twin.metrics["overload"]
        offered = sum(ov["arrivals"].values())
        msgs = result_violations(
            tampered(
                twin,
                rejected=dict(ov["rejected"], p2=offered // 50),
                ladder_history=[[1.0, "shed", "p2"], [4.0, "restore", "p2"]],
            )
        )
        assert any("clean demand rejected" in m for m in msgs)
        assert any("clean demand engaged" in m for m in msgs)

    def test_queue_conservation(self, pair):
        result, twin = pair
        queues = copy.deepcopy(result.metrics["overload"]["queues"])
        queues["p1"]["depth"] += 1
        msgs = result_violations(tampered(result, queues=queues), nominal=twin)
        assert msgs == ["overload p1: served+depth != accepted"]

    def test_breaker_left_open(self, sweep):
        result, twin = sweep["surge-during-fdir-recovery", 1]
        breaker = dict(result.metrics["overload"]["breaker"], state="open")
        msgs = result_violations(tampered(result, breaker=breaker), nominal=twin)
        assert any("breaker ended open" in m for m in msgs)


class _NoArrivals:
    """Arrival stream of an idle demand plane: the test queues by hand."""

    def poisson(self, lam):
        return 0


class TestExpiryRule:
    """A head whose sojourn reaches its class budget is shed (counted
    ``expired``), never served, and spends no breaker probe."""

    @pytest.fixture
    def plane(self):
        spec = ScenarioSpec(name="expiry", surge=SurgeProfile(start=0, end=1))
        sim = SimpleNamespace(now=0.0)
        return _DemandPlane(spec, sim, _NoArrivals()), sim, spec.frame_duration

    def test_head_at_budget_expires_younger_one_is_served(self, plane):
        demand, sim, fd = plane
        q = demand.queues["p2"]
        q.offer(0)
        sim.now = 0.5 * fd
        q.offer(0)
        sim.now = _DemandPlane.CLASS_BUDGET_FRAMES["p2"] * fd
        demand.step(frame=1, n_active=3, failing=False)
        assert demand.expired["p2"] == 1
        assert demand.served["p2"] == 1
        assert demand.sojourns == [pytest.approx(3.5)]
        stats = q.stats()
        assert stats["served"] == 2 and stats["depth"] == 0

    def test_expired_heads_spend_no_half_open_probe(self, plane):
        demand, sim, fd = plane
        q = demand.queues["p0"]
        for _ in range(3):  # more stale heads than half-open probes
            q.offer(0)
        for _ in range(BREAKER_THRESHOLD):
            demand.breaker.record_failure()
        sim.now = _DemandPlane.CLASS_BUDGET_FRAMES["p0"] * fd
        assert demand.breaker.state == "half-open"
        q.offer(1)
        q.offer(1)
        demand.step(frame=2, n_active=3, failing=False)
        assert demand.expired["p0"] == 3
        assert demand.served["p0"] == 2
        assert demand.breaker.state == "closed"
        assert demand.breaker.fast_rejects == 0


class TestDeterminism:
    def test_same_seed_same_trace(self, sweep):
        spec = overload_sweep([3])[0]
        again = run_scenario(spec)
        first = sweep[spec.name, 3][0]
        assert again.trace_hash == first.trace_hash
        assert again.metrics == first.metrics

    def test_different_seeds_differ(self, sweep):
        a = sweep["flash-crowd", 1][0]
        b = sweep["flash-crowd", 2][0]
        assert a.metrics["overload"]["arrivals"] != b.metrics["overload"]["arrivals"]
        assert a.trace_hash != b.trace_hash
