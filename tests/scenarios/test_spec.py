"""Spec layer: validation, serialization round-trip, hashing, profiles."""

import json
import math

import pytest

from repro.scenarios import (
    FadeSegment,
    FaultEvent,
    ReconfigAction,
    ScenarioError,
    ScenarioSpec,
    SurgeProfile,
    TrafficMix,
)

pytestmark = pytest.mark.scenario


def test_valid_spec_passes():
    spec = ScenarioSpec(name="ok", frames=8)
    assert spec.validate() is spec
    assert spec.problems() == []


def test_validation_collects_every_problem_at_once():
    spec = ScenarioSpec(
        name="",
        frames=0,
        num_carriers=1,
        traffic=TrafficMix(occupancy=2.0),
        faults=(FaultEvent(frame=99, kind="blank", carrier=7),),
    )
    problems = spec.problems()
    # one pass reports all of them, not just the first
    assert len(problems) >= 5
    with pytest.raises(ScenarioError) as err:
        spec.validate()
    for p in problems:
        assert p in str(err.value)


@pytest.mark.parametrize(
    "fault,fragment",
    [
        (FaultEvent(frame=2, kind="nonsense"), "kind"),
        (FaultEvent(frame=2, kind="blank"), "carrier"),
        (FaultEvent(frame=2, kind="latchup.demod", carrier=9), "carrier"),
        (FaultEvent(frame=-1, kind="seu.decoder"), "frame"),
        (FaultEvent(frame=2, kind="seu.decoder", magnitude=-5), "magnitude"),
        (FaultEvent(frame=2, kind="seu.decoder", magnitude=0.5), "magnitude"),
    ],
)
def test_bad_faults_are_rejected(fault, fragment):
    spec = ScenarioSpec(name="bad-fault", frames=8, faults=(fault,))
    assert any(fragment in p for p in spec.problems())


@pytest.mark.parametrize("magnitude", [0, 1, 200.0, 4096])
def test_seu_magnitude_whole_bit_counts_accepted(magnitude):
    """0 keeps meaning the default upset count; other whole numbers pass."""
    fault = FaultEvent(frame=2, kind="seu.decoder", magnitude=magnitude)
    assert ScenarioSpec(name="seu", frames=8, faults=(fault,)).problems() == []


def test_reconfig_equipment_must_be_on_board():
    def spec(equipment):
        return ScenarioSpec(
            name="rc-eq",
            frames=8,
            reconfigs=(
                ReconfigAction(frame=2, equipment=equipment, function="decod.turbo"),
            ),
        )

    for name in ("decod0", "demod0", "demod2"):
        assert spec(name).problems() == []
    for name in ("demod3", "demod9", "decod1", "nope"):
        with pytest.raises(ScenarioError, match="not on board"):
            spec(name).validate()


def test_bad_reconfig_is_rejected():
    spec = ScenarioSpec(
        name="bad-rc",
        frames=8,
        reconfigs=(
            ReconfigAction(frame=2, equipment="demod0", function="x", protocol="carrier-pigeon"),
        ),
    )
    assert any("protocol" in p for p in spec.problems())


def test_round_trip_preserves_everything():
    spec = ScenarioSpec(
        name="rt",
        description="round trip",
        frames=12,
        num_carriers=4,
        seed=99,
        traffic=TrafficMix(occupancy=0.7, weights=(1.0, 0.5, 0.25, 1.0)),
        fades=(FadeSegment(start=2, end=10, peak_db=6.0, shape="step"),),
        faults=(FaultEvent(frame=3, kind="blank", carrier=1, duration=2),),
        reconfigs=(ReconfigAction(frame=1, equipment="decod0", function="decod.turbo"),),
        expected_final_active=4,
    )
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


def test_from_dict_rejects_garbage():
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict({"name": "x", "frames": 4, "bogus_key": 1})


def test_spec_hash_is_sensitive_to_content():
    a = ScenarioSpec(name="h", frames=8)
    b = ScenarioSpec(name="h", frames=9)
    assert a.spec_hash() != b.spec_hash()
    assert a.spec_hash() == ScenarioSpec(name="h", frames=8).spec_hash()


def test_fade_profile_shapes():
    step = ScenarioSpec(
        name="s",
        frames=12,
        fades=(FadeSegment(start=4, end=8, peak_db=5.0, shape="step"),),
    )
    assert step.fade_db(3) == 0.0
    assert step.fade_db(4) == 5.0
    assert step.fade_db(7) == 5.0
    assert step.fade_db(8) == 0.0
    ramp = ScenarioSpec(
        name="r",
        frames=40,
        fades=(FadeSegment(start=8, end=32, peak_db=8.0, shape="ramp"),),
    )
    mid = (8 + 32) // 2
    assert math.isclose(ramp.fade_db(mid), 8.0, rel_tol=0.15)
    assert ramp.fade_db(8) < 2.0
    assert ramp.fade_db(31) < 2.0
    # superposition of overlapping segments
    both = ScenarioSpec(
        name="b",
        frames=12,
        fades=(
            FadeSegment(start=2, end=10, peak_db=3.0, shape="step"),
            FadeSegment(start=4, end=6, peak_db=2.0, shape="step"),
        ),
    )
    assert both.fade_db(5) == 5.0


def test_severity_tracks_faults_and_fades():
    spec = ScenarioSpec(
        name="sev",
        frames=20,
        fades=(FadeSegment(start=2, end=6, peak_db=4.0, shape="step"),),
        faults=(
            FaultEvent(frame=8, kind="blank", carrier=0, duration=3),
            FaultEvent(frame=10, kind="latchup.demod", carrier=1),
        ),
    )
    assert spec.severity(0) == 0.0
    assert spec.severity(3) == 4.0
    assert spec.severity(9) == 1.0
    # the latch-up is permanent: severity stays elevated afterwards
    assert spec.severity(15) >= 1.0


class TestSurgeProfile:
    def test_multiplier_profile(self):
        surge = SurgeProfile(start=4, end=10, multiplier=5.0)
        assert surge.multiplier_at(3) == 1.0
        assert surge.multiplier_at(4) == 5.0
        assert surge.multiplier_at(9) == 5.0
        assert surge.multiplier_at(10) == 1.0

    def test_validation_collected_by_spec(self):
        spec = ScenarioSpec(
            name="bad-surge",
            frames=8,
            surge=SurgeProfile(start=6, end=20, multiplier=0.5),
        )
        with pytest.raises(ScenarioError) as err:
            spec.validate()
        msg = str(err.value)
        assert "surge: end 20 beyond mission" in msg
        assert "surge: multiplier 0.5 must be >= 1" in msg

    def test_round_trip_and_hash_sensitivity(self):
        with_surge = ScenarioSpec(
            name="s",
            frames=24,
            surge=SurgeProfile(start=8, end=16, multiplier=4.0),
        )
        back = ScenarioSpec.from_dict(with_surge.to_dict())
        assert back == with_surge
        assert back.spec_hash() == with_surge.spec_hash()
        without = ScenarioSpec(name="s", frames=24)
        assert ScenarioSpec.from_dict(without.to_dict()).surge is None
        assert without.spec_hash() != with_surge.spec_hash()


class TestActionExpectations:
    def test_omitted_when_empty_so_spec_hashes_hold(self):
        spec = ScenarioSpec(name="h", frames=8)
        d = spec.to_dict()
        assert "expect_actions" not in d and "forbid_actions" not in d
        # a dict written before the fields existed still loads
        assert ScenarioSpec.from_dict(d) == spec

    def test_round_trip_and_hash_sensitivity(self):
        spec = ScenarioSpec(
            name="h",
            frames=8,
            expect_actions=("reacquire",),
            forbid_actions=("isolate", "terminal"),
        )
        d = json.loads(spec.canonical_json())
        assert d["expect_actions"] == ["reacquire"]
        back = ScenarioSpec.from_dict(d)
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()
        assert spec.spec_hash() != ScenarioSpec(name="h", frames=8).spec_hash()

    def test_contradiction_rejected(self):
        spec = ScenarioSpec(
            name="h", frames=8, expect_actions=("shed",), forbid_actions=("shed",)
        )
        with pytest.raises(ScenarioError, match="both expected and forbidden"):
            spec.validate()
