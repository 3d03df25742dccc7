"""Traffic-plane FDIR acceptance: the FDIR missions x seeds through the
scenario runner, zero invariant violations.

Every mission runs the same frame loop, batched soft-decision decode
included, as the golden corpus; :func:`fdir_sweep` attaches the FDIR
actions each fault class must (and must never) trigger, and
:func:`result_violations` checks them with every other invariant.
"""

import numpy as np
import pytest

import repro.scenarios.runner as runner_mod
from repro.obs.trace import Tracer
from repro.scenarios import (
    build_traffic_world,
    catalog_by_name,
    fdir_sweep,
    result_violations,
    run_scenario,
)

pytestmark = [pytest.mark.fdir, pytest.mark.scenario]

SEEDS = (101, 202, 303, 404, 505)
MISSIONS = [spec.name for spec in fdir_sweep([0])]
FAULTED = [name for name in MISSIONS if name != "nominal"]


class TestWorld:
    def test_world_is_fully_wired(self):
        w = build_traffic_world()
        assert len(w.pairs) == 3
        assert all(p.spare.loaded_design is None for p in w.pairs)
        assert w.payload.decoder.loaded_design == "decod.conv"
        assert w.payload.health is w.bank
        # the library holds every personality the ladder may need
        for design in ("modem.tdma", "modem.tdma.robust", "decod.conv"):
            assert w.payload.obc.library.fetch(design) is not None

    def test_one_coded_block_exactly_fills_a_burst(self):
        w = build_traffic_world()
        chain = w.ground("decod.conv")
        modem = w.ground("modem.tdma")
        assert chain.physical_bits == modem.bits_per_burst
        # one terminal-side instance per design name
        assert w.ground("modem.tdma") is modem


class TestSweepSpecs:
    def test_eight_missions_per_seed_with_expectations(self):
        specs = fdir_sweep([1, 2])
        assert len(specs) == 16
        assert sorted({s.seed for s in specs}) == [1, 2]
        assert MISSIONS == [
            "nominal",
            "lock-loss",
            "interference",
            "cfo-step",
            "decoder-seu",
            "demod-latchup",
            "double-latchup",
            "rain-fade",
        ]
        for spec in specs:
            assert spec.expect_actions or spec.forbid_actions
            spec.validate()

    def test_golden_missions_stay_unchanged(self):
        """Only seed and expectations move: the canonical specs (and
        their golden spec hashes) carry neither."""
        catalog = catalog_by_name()
        for spec in fdir_sweep([0]):
            base = catalog[spec.name]
            assert not base.expect_actions and not base.forbid_actions
            assert spec.faults == base.faults and spec.fades == base.fades


def test_fault_to_recovery_visible_in_trace(monkeypatch):
    """Injected fault -> detection -> recovery as deterministic events."""
    made = []

    def capture(**kw):
        made.append(Tracer(**kw))
        return made[-1]

    monkeypatch.setattr(runner_mod, "Tracer", capture)
    result = run_scenario(catalog_by_name()["lock-loss"])
    assert result_violations(result) == []
    events = [e.kind for e in made[0].events()]
    first_trip = events.index("fdir.trip")
    action = events.index("fdir.action")
    clear = events.index("fdir.clear")
    recovered = events.index("fdir.recovered")
    assert first_trip < action < recovered
    assert first_trip < clear


@pytest.fixture(scope="module")
def sweep():
    return {
        (spec.name, spec.seed): run_scenario(spec)
        for spec in fdir_sweep(SEEDS)
    }


@pytest.mark.slow
@pytest.mark.chaos
class TestAcceptanceSweep:
    @pytest.mark.parametrize("name", MISSIONS)
    def test_zero_violations(self, sweep, name):
        bad = [
            f"{name}/{seed}: {msg}"
            for seed in SEEDS
            for msg in result_violations(sweep[name, seed])
        ]
        assert bad == [], "\n".join(bad)

    @pytest.mark.parametrize("name", FAULTED)
    def test_detection_is_prompt(self, sweep, name):
        # step faults are caught within 6 frames of onset; the fade ramp
        # grows from 0 dB at onset, so its latency is mostly the time
        # the fade takes to matter -- allow the ramp time
        bound = 12 if name == "rain-fade" else 6
        for seed in SEEDS:
            latency = sweep[name, seed].detection_latency
            assert latency is not None, f"{name}/{seed}: never detected"
            assert latency <= bound, (name, seed, latency)

    def test_double_latchup_latches_terminal_safe_mode(self, sweep):
        for seed in SEEDS:
            m = sweep["double-latchup", seed].metrics
            assert m["terminal_carriers"] == [0]
            assert m["safe_mode"] == ["demod0"]
            assert m["final_active"] == 2

    def test_rain_fade_sheds_and_restores(self, sweep):
        for seed in SEEDS:
            m = sweep["rain-fade", seed].metrics
            assert m["policy_events"].get("shed", 0) > 0, seed
            assert m["policy_events"].get("restore", 0) > 0, seed
            assert m["final_active"] == 3, seed

    def test_nominal_control_delivers_everything(self, sweep):
        for seed in SEEDS:
            result = sweep["nominal", seed]
            m = result.metrics
            assert m["delivered"] == m["attempted"] > 0
            assert m["corrupt"] == 0
            assert not m["actions"] and not m["policy_events"]
            assert result.detection_latency is None
            assert not any(result.alarm_history)

    def test_sweep_moves_data(self, sweep):
        assert all(r.completed for r in sweep.values())
        rates = [
            r.metrics["delivered"] / r.metrics["attempted"]
            for r in sweep.values()
        ]
        assert np.mean(rates) > 0.7
