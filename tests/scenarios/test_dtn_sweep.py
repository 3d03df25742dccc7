"""DTN acceptance: the link-disruption patterns x seeds through the
scenario runner, zero invariant violations.

Telemetry store-and-forward (recorder, TM downlink, ground-driven
playback), resumable uploads and exactly-once telecommands are checked
by :func:`result_violations` on the same frame loop the golden corpus
runs.  The resumable-vs-restart-from-zero comparison lives in
``tests/robustness/test_dtn_transfer.py`` and the in-flight TC
retransmission in ``tests/robustness/test_dtn_contact.py``.
"""

import copy
import dataclasses

import pytest

from repro.robustness.dtn import SolidStateRecorder
from repro.scenarios import (
    ContactSchedule,
    ScenarioError,
    ScenarioSpec,
    catalog_by_name,
    outage_sweep,
    result_violations,
    run_scenario,
)

pytestmark = [pytest.mark.dtn, pytest.mark.scenario]

SEEDS = (1, 2, 3, 4, 5)
PATTERNS = [spec.name for spec in outage_sweep([0])]


@pytest.fixture(scope="module")
def sweep():
    return {(spec.name, spec.seed): run_scenario(spec) for spec in outage_sweep(SEEDS)}


def tampered(result, section, **fields):
    """``result`` with ``metrics[section]`` fields replaced (a dotted
    section reaches into nested dicts)."""
    metrics = copy.deepcopy(result.metrics)
    target = metrics
    for key in section.split("."):
        target = target[key]
    target.update(fields)
    return dataclasses.replace(result, metrics=metrics)


class TestSweepSpecs:
    def test_outage_patterns(self):
        specs = outage_sweep([1, 2])
        assert len(specs) == 8
        assert PATTERNS == [
            "scheduled-pass",
            "recorder-overflow",
            "flapping-link",
            "blackout-resume-upload",
        ]
        for spec in specs:
            assert spec.contacts is not None
            spec.validate()

    def test_blackout_is_the_golden_mission_reseeded(self):
        golden = catalog_by_name()["blackout-resume-upload"]
        for spec in outage_sweep([4]):
            if spec.name == golden.name:
                assert dataclasses.replace(spec, seed=golden.seed) == golden

    def test_telemetry_fields_are_omitted_at_their_defaults(self):
        plain = ContactSchedule(windows=((6.0, 1800.0),))
        spec = ScenarioSpec(name="x", contacts=plain)
        assert set(spec.to_dict()["contacts"]) == {
            "windows",
            "outages",
            "segment_size",
        }
        tm = dataclasses.replace(plain, tm_period=5.0, tm_stop=7.0)
        spec = ScenarioSpec(name="x", contacts=tm)
        d = spec.to_dict()
        assert d["contacts"]["tm_period"] == 5.0
        assert "recorder_capacity" not in d["contacts"]
        assert ScenarioSpec.from_dict(d) == spec

    def test_telemetry_fields_are_validated(self):
        bad = ScenarioSpec(
            name="x",
            frames=4,
            contacts=ContactSchedule(
                tm_period=-1.0, tm_stop=10.0, recorder_capacity=0
            ),
        )
        problems = "\n".join(bad.problems())
        assert "tm_period" in problems
        assert "recorder_capacity" in problems
        assert "beyond mission end" in problems
        with pytest.raises(ScenarioError, match="tm_stop"):
            ScenarioSpec(
                name="x", contacts=ContactSchedule(tm_period=1.0)
            ).validate()


@pytest.mark.chaos
class TestOutageSweep:
    def test_zero_violations(self, sweep):
        assert sorted(sweep) == sorted((n, s) for n in PATTERNS for s in SEEDS)
        bad = [
            f"{name}/{seed}: {msg}"
            for (name, seed), result in sweep.items()
            for msg in result_violations(result)
        ]
        assert bad == [], "\n".join(bad)

    def test_scheduled_pass_delivers_every_record(self, sweep):
        for seed in SEEDS:
            tm = sweep["scheduled-pass", seed].metrics["dtn"]["telemetry"]
            assert sum(tm["produced"].values()) > 0
            assert tm["delivered"] == tm["produced"]
            assert tm["gaps"] == 0
            assert tm["recorder"]["shed"] == 0

    def test_recorder_overflow_sheds_low_priority_only(self, sweep):
        for seed in SEEDS:
            tm = sweep["recorder-overflow", seed].metrics["dtn"]["telemetry"]
            rec = tm["recorder"]
            assert rec["shed"] > 0
            assert rec["shed_by_class"]["p0"] == 0
            assert rec["shed_by_class"]["p2"] > rec["shed_by_class"]["p1"]
            assert tm["delivered"]["p0"] == tm["produced"]["p0"]

    def test_flapping_uploads_resume(self, sweep):
        for seed in SEEDS:
            m = sweep["flapping-link", seed].metrics
            transfers = m["dtn"]["transfers"]
            assert len(transfers) == 3
            assert all(t["finished"] for t in transfers.values())
            assert sum(t["resumes"] for t in transfers.values()) >= 1
            assert m["gateway"]["executed"] == m["ncc"]["tc_issued"] > 0

    def test_blackout_upload_resumes(self, sweep):
        for seed in SEEDS:
            (st,) = sweep["blackout-resume-upload", seed].metrics["dtn"][
                "transfers"
            ].values()
            assert st["resumes"] >= 1
            assert st["overhead_ratio"] < 1.5


class TestCheckerCatches:
    """Each store-and-forward and exactly-once invariant fires on a
    doctored result."""

    @pytest.fixture(scope="class")
    def overflow(self, sweep):
        return sweep["recorder-overflow", 1]

    @pytest.fixture(scope="class")
    def clean(self, sweep):
        return sweep["scheduled-pass", 1]

    def test_recorder_conservation(self, overflow):
        rec = overflow.metrics["dtn"]["telemetry"]["recorder"]
        msgs = result_violations(
            tampered(
                overflow,
                "dtn.telemetry.recorder",
                dropped=rec["dropped"] + 1,
                evicted=rec["evicted"] + 1,
            )
        )
        assert any("recorder ingress" in m for m in msgs)
        assert any("recorder egress" in m for m in msgs)

    def test_records_left_on_board(self, overflow):
        rec = overflow.metrics["dtn"]["telemetry"]["recorder"]
        msgs = result_violations(
            tampered(
                overflow,
                "dtn.telemetry.recorder",
                pending=1,
                played_back=rec["played_back"] - 1,
            )
        )
        assert any("still on board" in m for m in msgs)

    def test_p0_shed_or_lost(self, overflow):
        tm = overflow.metrics["dtn"]["telemetry"]
        rec = tm["recorder"]
        msgs = result_violations(
            tampered(
                overflow,
                "dtn.telemetry.recorder",
                shed_by_class=dict(rec["shed_by_class"], p0=1),
            )
        )
        assert any("shed 1 p0" in m for m in msgs)
        delivered = dict(tm["delivered"], p0=tm["delivered"]["p0"] - 1)
        msgs = result_violations(
            tampered(overflow, "dtn.telemetry", delivered=delivered)
        )
        assert any("p0 loss" in m for m in msgs)

    def test_loss_or_gaps_without_shedding(self, clean):
        tm = clean.metrics["dtn"]["telemetry"]
        delivered = dict(tm["delivered"], p2=tm["delivered"]["p2"] - 1)
        msgs = result_violations(
            tampered(clean, "dtn.telemetry", delivered=delivered, gaps=2)
        )
        assert any("TM loss" in m for m in msgs)
        assert any("continuity gaps" in m for m in msgs)

    def test_duplicate_or_lost_telecommand(self, sweep):
        result = sweep["flapping-link", 1]
        gw = result.metrics["gateway"]
        dup = tampered(result, "gateway", rejected=gw["rejected"] + 1)
        assert any("rejected >" in m for m in result_violations(dup))
        lost = tampered(result, "gateway", executed=gw["executed"] - 1)
        assert any("executed on board" in m for m in result_violations(lost))
        # an exhausted transaction excuses the missing execution
        excused = tampered(lost, "ncc", exhausted=1)
        assert not any(
            "executed on board" in m for m in result_violations(excused)
        )


class TestDeterminism:
    def test_same_seed_same_trace(self, sweep):
        spec = outage_sweep([3])[0]
        again = run_scenario(spec)
        first = sweep[spec.name, 3]
        assert again.trace_hash == first.trace_hash
        assert again.metrics == first.metrics


def test_dead_background_process_fails_the_run(monkeypatch):
    """A telemetry producer that dies mid-mission fails the run with its
    own exception instead of silently stopping production."""
    calls = {"n": 0}
    record = SolidStateRecorder.record

    def failing_record(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 5:
            raise RuntimeError("recorder write fault")
        return record(self, *args, **kwargs)

    monkeypatch.setattr(SolidStateRecorder, "record", failing_record)
    result = run_scenario(outage_sweep([1])[0])
    assert not result.completed
    assert result.error == "RuntimeError: recorder write fault"
    assert result_violations(result) == [
        "run did not complete: RuntimeError: recorder write fault"
    ]
