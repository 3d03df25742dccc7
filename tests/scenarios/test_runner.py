"""Runner-level behaviour: determinism regression, invariant reporting,
exactly-once TC accounting, the ground segment's contract, and the
no-unseeded-RNG source audit."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import repro.scenarios.runner as runner_mod
from repro.coding import TransportChain
from repro.dsp.demux import multiplex_carriers
from repro.ncc.campaign import NetworkControlCenter
from repro.scenarios import (
    FaultEvent,
    ReconfigAction,
    ScenarioError,
    ScenarioSpec,
    result_violations,
    run_scenario,
)
from repro.scenarios.runner import ground_uplink
from repro.scenarios.world import build_traffic_world

pytestmark = pytest.mark.scenario

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _tiny(name="tiny-runner", frames=6, **kw):
    return ScenarioSpec(name=name, frames=frames, recovery_tail=2, **kw)


def test_same_seed_same_trace_hash_regression():
    """The nondeterminism-audit regression: two same-seed scenario runs
    must produce byte-identical canonical traces."""
    spec = _tiny()
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a.trace_hash == b.trace_hash
    assert a.kind_counts == b.kind_counts
    assert a.metrics == b.metrics


def test_different_seed_different_trace():
    a = run_scenario(_tiny())
    b = run_scenario(_tiny(seed=123))
    assert a.trace_hash != b.trace_hash


def test_invalid_spec_is_rejected_before_running():
    with pytest.raises(ScenarioError):
        run_scenario(ScenarioSpec(name="", frames=0))


def test_clean_run_has_no_violations():
    result = run_scenario(_tiny())
    assert result.completed
    assert result_violations(result) == []
    assert result.metrics["delivered"] == result.metrics["attempted"]


def test_violation_messages_name_the_broken_invariant():
    result = run_scenario(_tiny())
    rigged = dataclasses.replace(
        result, metrics={**result.metrics, "corrupt": 2}
    )
    assert any("silent corruption" in v for v in result_violations(rigged))
    rigged = dataclasses.replace(
        result, metrics={**result.metrics, "final_active": 1}
    )
    assert any("no recovery" in v for v in result_violations(rigged))
    rigged = dataclasses.replace(result, completed=False, error="Boom: x")
    assert any("did not complete" in v for v in result_violations(rigged))


def test_expected_and_forbidden_actions_are_checked():
    result = run_scenario(_tiny())
    assert result.metrics["actions"] == {}
    rigged = dataclasses.replace(
        result,
        spec=dataclasses.replace(result.spec, expect_actions=("reacquire",)),
    )
    assert result_violations(rigged) == [
        "expected action 'reacquire' never happened"
    ]
    # policy events count as actions too
    rigged = dataclasses.replace(
        result,
        spec=dataclasses.replace(result.spec, forbid_actions=("shed",)),
        metrics={**result.metrics, "policy_events": {"shed": 1}},
    )
    assert result_violations(rigged) == ["forbidden action 'shed' happened"]


def test_failed_campaign_surfaces_its_exception():
    """A reconfiguration campaign that raises fails the run with its
    own exception instead of a bare 'planned reconfigurations' count."""
    spec = _tiny(
        frames=8,
        reconfigs=(
            ReconfigAction(frame=2, equipment="decod0", function="decod.nope"),
        ),
    )
    result = run_scenario(spec)
    assert not result.completed
    assert result.error.startswith("KeyError")
    assert "decod.nope" in result.error
    assert any("decod.nope" in v for v in result_violations(result))


def _wait_forever(self, *args, **kwargs):
    yield self.sim.event()  # never succeeds: nothing left to run


def _poll_forever(self, *args, **kwargs):
    while True:  # keeps the clock moving until the time limit
        yield self.sim.timeout(1.0)


@pytest.mark.parametrize(
    "hang, error",
    [
        (_wait_forever, "event heap drained before event fired"),
        (_poll_forever, "time limit 904.0 exceeded"),
    ],
    ids=["wait", "poll"],
)
def test_hung_campaign_is_reported_not_waited_out(monkeypatch, hang, error):
    """The no-hang invariant on a real hang: a campaign that never
    returns ends the run with ``completed=False`` instead of stalling
    the suite."""
    monkeypatch.setattr(NetworkControlCenter, "reconfigure_equipment", hang)
    spec = _tiny(
        frames=8,
        reconfigs=(
            ReconfigAction(frame=2, equipment="decod0", function="decod.turbo"),
        ),
    )
    result = run_scenario(spec)
    assert not result.completed
    assert error in result.error
    assert result_violations(result) == [f"run did not complete: {result.error}"]


def test_detection_latency_from_alarm_history():
    result = run_scenario(
        _tiny(
            frames=12,
            faults=(FaultEvent(frame=4, kind="latchup.demod", carrier=1),),
        )
    )
    assert len(result.alarm_history) == 12
    assert not any(result.alarm_history[:4])
    latency = result.detection_latency
    assert latency is not None and latency <= 6
    assert result.alarm_history[4 + latency] > 0
    assert run_scenario(_tiny()).detection_latency is None


def test_exactly_once_over_lossy_ground_link():
    """TC retransmissions on a lossy link never double-execute."""
    from repro.scenarios import catalog_by_name

    result = run_scenario(catalog_by_name()["lossy-ground"])
    m = result.metrics
    assert result_violations(result) == []
    assert m["gateway"]["executed"] == m["ncc"]["tc_issued"]
    assert m["reconfigs"] == [
        {
            "function": "decod.turbo",
            "protocol": "tftp",
            "success": True,
            "rolled_back": False,
        }
    ]
    # the swap really landed on board
    assert m["personalities"]["decod0"] == "decod.turbo"


def test_decoder_seu_recovers_via_fdir():
    spec = ScenarioSpec(
        name="seu-quick",
        frames=20,
        faults=(FaultEvent(frame=6, kind="seu.decoder", magnitude=200),),
    )
    result = run_scenario(spec)
    assert result_violations(result) == []
    assert result.metrics["actions"].get("decoder_reload", 0) >= 1


def _blocks(world, seed=0):
    k = world.payload.decoder.behaviour().transport_block
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (world.num_carriers, k)).astype(np.uint8)


@pytest.mark.parametrize("decoder", ["decod.conv", "decod.turbo", "decod.none"])
def test_ground_uplink_noiseless_is_the_payload_uplink(decoder):
    """At sigma=0 the ground segment is the payload's own uplink
    synthesis, bit for bit; a coded block shorter than its burst (turbo:
    180 of 192 bits) is zero-filled."""
    world = build_traffic_world()
    world.payload.decoder.load(decoder)
    chain = world.payload.decoder.behaviour()
    blocks = _blocks(world)
    bpb = world.payload.demods[0].behaviour().bits_per_burst
    coded = [np.pad(c, (0, bpb - len(c))) for c in chain.encode(blocks)]
    wide = ground_uplink(
        world, range(world.num_carriers), blocks, 0.0, np.random.default_rng(1)
    )
    np.testing.assert_array_equal(wide, world.payload.build_uplink(coded))


def test_ground_uplink_draws_noise_per_carrier_in_order():
    """Each listed carrier draws ``2 x`` its burst length from the noise
    stream, real then imaginary, in carrier order; a blanked carrier
    sends the noise alone and an unlisted one stays silent."""
    world = build_traffic_world(num_carriers=4)
    carriers, sigma, boost = [0, 2, 3], 0.3, {2: 6.0}
    blocks = _blocks(world)[: len(carriers)]
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    wide = ground_uplink(
        world, carriers, blocks, sigma, rng, boost=boost, blank=set(carriers)
    )
    modem = world.ground("modem.tdma")
    n = len(modem.transmit(np.zeros(modem.bits_per_burst, dtype=np.uint8)))
    mat = np.zeros((4, n), dtype=np.complex128)
    for k in carriers:
        s = sigma * 10.0 ** (boost.get(k, 0.0) / 20.0)
        mat[k] = s * (twin.standard_normal(n) + 1j * twin.standard_normal(n))
    np.testing.assert_array_equal(wide, multiplex_carriers(mat, 4))
    assert rng.standard_normal() == twin.standard_normal()


def test_frame_loop_encodes_and_multiplexes_once_per_frame(monkeypatch):
    """The mission's uplink is one encode and one multiplex per frame,
    through the names the end-to-end span recorder wraps."""
    calls = {"multiplex": 0, "encode": 0}
    multiplex, encode = runner_mod.multiplex_carriers, TransportChain.encode

    def counting_multiplex(*args):
        calls["multiplex"] += 1
        return multiplex(*args)

    def counting_encode(self, bits):
        calls["encode"] += 1
        return encode(self, bits)

    monkeypatch.setattr(runner_mod, "multiplex_carriers", counting_multiplex)
    monkeypatch.setattr(TransportChain, "encode", counting_encode)
    frames = 5
    result = run_scenario(_tiny(frames=frames))
    assert result.completed
    assert result.active_history == [3] * frames
    assert calls == {"multiplex": frames, "encode": frames}


def test_coded_block_longer_than_its_burst_fails_the_run():
    """A campaign that loads a modem whose burst cannot carry the coded
    block (CDMA: 128 bits < 192 convolutionally coded bits) ends the
    run with the sizes named, instead of silently truncating bursts."""
    spec = _tiny(
        frames=8,
        reconfigs=(
            ReconfigAction(
                frame=2, equipment="demod1", function="modem.cdma", protocol="ftp"
            ),
        ),
    )
    result = run_scenario(spec)
    assert not result.completed
    assert result.error.startswith("ValueError")
    assert "modem.cdma" in result.error
    assert "192" in result.error and "128" in result.error


def test_no_unseeded_rng_in_src():
    """Nondeterminism audit: every RNG in ``src/`` must be seeded.

    Module-level ``np.random.*`` convenience calls and argument-less
    ``default_rng()`` would silently break trace-hash reproducibility;
    all randomness must flow through ``repro.sim.rng`` streams or an
    explicitly seeded generator.
    """
    forbidden = re.compile(
        r"np\.random\.(random|rand|randn|randint|choice|shuffle|seed|"
        r"normal|standard_normal|uniform|permutation)\s*\("
        r"|default_rng\(\s*\)"
        r"|np\.random\.RandomState"
    )
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if forbidden.search(line.split("#", 1)[0]):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, "unseeded RNG use in src/:\n" + "\n".join(offenders)
