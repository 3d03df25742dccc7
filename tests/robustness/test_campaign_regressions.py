"""Regression tests for the pre-robustness campaign failure modes.

Four historical bugs, each pinned by a test:

1. ``send_telecommand`` did ``sendto(); yield recv()`` -- a dropped TC
   or TM datagram stranded the ground process *forever* (no sim-time
   timeout).  The transaction layer must fail at bounded simulated time.
2. The ``store``-failure path built its :class:`CampaignResult` from the
   raw error payload, so ``result.telemetry["crc"]`` /
   ``["rolled_back"]`` raised ``KeyError`` depending on which step
   failed.  Both paths must now carry normalized telemetry.
3. ``ReconfigurationManager`` crashed (uncaught ``KeyError``) when the
   previous design could be recovered from *neither* the library nor
   the design registry; it must degrade to ``rollback-none`` instead.
4. UDP carried no checksum and IP checks only its own header, so a
   link that flips bits delivered corrupted telecommands that the OBC
   executed (an action ``"sto2e"``, a function ``"deco`.turbo"``).
"""

import numpy as np
import pytest

from repro.core import PayloadConfig, RegenerativePayload
from repro.core.bitstore import BitstreamLibrary
from repro.core.registry import FunctionRegistry
from repro.fpga.memory import OnboardMemory
from repro.ncc.campaign import NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.net.udp import UdpSocket
from repro.robustness import RetryExhausted, RetryPolicy
from repro.robustness.transactions import TC_PORT
from repro.sim import RngRegistry, Simulator

GEOM = (8, 8, 32)


def build_world(seed=0, ber=0.0, error_mode="drop", tc_policy=None):
    """NCC and a two-carrier satellite (CDMA modem, convolutional
    decoder) joined by one seeded GEO hop."""
    rngs = RngRegistry(seed)
    sim = Simulator()
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(
        sim,
        delay=0.25,
        ber=ber,
        rng=rngs.stream("link") if ber else None,
        error_mode=error_mode,
    )
    link.attach(ground)
    link.attach(space)
    payload = RegenerativePayload(
        PayloadConfig(
            num_carriers=2,
            fpga_rows=GEOM[0],
            fpga_cols=GEOM[1],
            fpga_bits_per_clb=GEOM[2],
        )
    )
    payload.boot(modem="modem.cdma", decoder="decod.conv")
    gateway = SatelliteGateway(space, payload)
    ncc = NetworkControlCenter(
        ground, payload.registry, 2, GEOM, tc_policy=tc_policy,
        rng=rngs.stream("jitter"),
    )
    return sim, link, payload, gateway, ncc


def run_campaign(sim, ncc, *args, **kwargs):
    box = {}

    def campaign():
        box["res"] = yield from ncc.reconfigure_equipment(*args, **kwargs)

    sim.process(campaign())
    sim.run(until=3600)
    return box["res"]


class TestSendTelecommandBoundedTimeout:
    """Regression: a lost TC/TM datagram must not hang the NCC forever."""

    def test_old_raw_pattern_hangs_demo(self):
        """The pre-robustness pattern provably hangs on a dead link."""
        sim, link, _payload, _gw, ncc = build_world(seed=0)
        link.set_up(False)  # the TC never reaches the satellite

        def old_send_telecommand():
            # verbatim shape of the old campaign code: no timeout race
            sock = UdpSocket(ncc.node.ip)
            sock.sendto(b'{"tc_id": 1, "action": "status", "args": {}}', 2, TC_PORT)
            yield sock.recv()  # <- blocks forever when the reply is lost

        proc = sim.process(old_send_telecommand())
        sim.run(until=7 * 24 * 3600.0)  # a week of simulated time
        assert not proc.triggered  # still stranded: that was the bug

    def test_new_transaction_fails_at_bounded_sim_time(self):
        policy = RetryPolicy(max_attempts=3, base_delay=2.0, multiplier=2.0, jitter=0.0)
        sim, link, _payload, _gw, ncc = build_world(seed=0, tc_policy=policy)
        link.set_up(False)
        box = {}

        def campaign():
            try:
                yield from ncc.send_telecommand("status", {})
            except RetryExhausted as exc:
                box["error"] = exc
                box["t"] = sim.now

        sim.run(until=0)  # let servers start
        sim.process(campaign())
        sim.run(until=7 * 24 * 3600.0)
        assert isinstance(box["error"], RetryExhausted)
        # listen windows 2 + 4 + 8 s: detection within the policy bound,
        # not a week-long hang
        assert box["t"] == pytest.approx(14.0)
        assert box["t"] <= policy.total_delay_bound()


class TestStoreFailureResultNormalization:
    """Regression: the store-failure CampaignResult omitted telemetry keys."""

    def test_store_failure_result_carries_normalized_telemetry(self):
        sim, _link, payload, _gw, ncc = build_world(seed=0)
        tiny = BitstreamLibrary(OnboardMemory(capacity_bytes=64))
        payload.obc.library = tiny
        payload.obc.manager.library = tiny
        payload.obc.manager.reconfig.library = tiny
        res = run_campaign(sim, ncc, "demod0", "modem.tdma", protocol="tftp")
        assert not res.success
        # the exact keys the old code raised KeyError on:
        assert res.crc is None
        assert res.rolled_back is False
        assert res.safe_mode is False
        for key in ("crc", "rolled_back", "safe_mode", "final_function", "error"):
            assert key in res.telemetry, key
        assert "memory full" in res.telemetry["error"] or "error" in res.telemetry
        # the payload was never touched: still on its boot personality
        assert payload.demods[0].loaded_design == "modem.cdma"

    def test_full_campaign_result_has_the_same_shape(self):
        sim, _link, _payload, _gw, ncc = build_world(seed=0)
        res = run_campaign(sim, ncc, "demod0", "modem.tdma", protocol="tftp")
        assert res.success
        for key in ("crc", "rolled_back", "safe_mode", "final_function"):
            assert key in res.telemetry, key
        assert res.crc is not None
        assert res.telemetry["final_function"] == "modem.tdma"


class TestRollbackWithUnrecoverablePreviousImage:
    """Regression: rollback must degrade, not crash, when the previous
    design is gone from both the library and the registry."""

    def _payload(self):
        payload = RegenerativePayload(
            PayloadConfig(
                num_carriers=1,
                fpga_rows=GEOM[0],
                fpga_cols=GEOM[1],
                fpga_bits_per_clb=GEOM[2],
            )
        )
        payload.boot(modem="modem.cdma")
        return payload

    def test_rollback_none_when_no_previous_configuration(self):
        payload = self._payload()
        eq = payload.demods[0]
        eq.unload()  # blank FPGA: nothing to roll back to
        steps = []
        ok = payload.obc.manager._rollback(eq, None, None, steps)
        assert ok is False
        assert steps[-1].step == "rollback-none"
        assert eq.loaded_design is None

    def test_execute_survives_prev_design_missing_everywhere(self):
        payload = self._payload()
        eq = payload.demods[0]
        manager = payload.obc.manager
        # target available in the library; previous design nowhere:
        payload.obc.library.store(
            payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        )
        pruned = FunctionRegistry()
        pruned.add(payload.registry.get("modem.tdma"))
        eq.registry = pruned  # "modem.cdma" no longer renderable
        rng = np.random.default_rng(0)

        def corrupt(fpga):
            fpga.upset_bits(rng.integers(0, fpga.num_config_bits, size=16))

        report = manager.execute(eq, "modem.tdma", corrupt_hook=corrupt)
        # validation failed and rollback found nothing -- but no crash:
        assert not report.success
        assert not report.rolled_back
        assert report.final_function is None
        assert any(s.step == "rollback-none" for s in report.steps)

    def test_execute_still_rolls_back_via_registry_when_library_lacks_prev(self):
        payload = self._payload()
        eq = payload.demods[0]
        manager = payload.obc.manager
        payload.obc.library.store(
            payload.registry.get("modem.tdma").bitstream_for(*GEOM)
        )
        # library has only the target; prev (modem.cdma) re-renders from
        # the full registry -- the graceful intermediate case
        rng = np.random.default_rng(0)

        def corrupt(fpga):
            fpga.upset_bits(rng.integers(0, fpga.num_config_bits, size=16))

        report = manager.execute(eq, "modem.tdma", corrupt_hook=corrupt)
        assert not report.success
        assert report.rolled_back
        assert report.final_function == "modem.cdma"
        assert eq.operational


class TestBitFlipLinkNeverExecutesCorruptTelecommands:
    """Regression: a flipped TC or upload bit passed IP's header-only
    check and reached the OBC; the UDP checksum now discards it and the
    transaction layer retransmits."""

    def test_decoder_swap_over_flip_link(self):
        flipped = 0
        for seed in range(10):
            sim, link, payload, gateway, ncc = build_world(
                seed=seed, ber=3e-4, error_mode="flip"
            )
            box = {}

            def campaign():
                try:
                    yield from ncc.reconfigure_equipment(
                        "decod0", "decod.turbo", protocol="tftp"
                    )
                except RetryExhausted as exc:
                    # every reply to a retransmission can be hit too:
                    # bounded failure, not corruption
                    box["exhausted"] = exc

            sim.process(campaign())
            sim.run(until=3600)
            flipped += link.stats.get("flipped_bits", 0)
            assert gateway.stats["rejected"] == 0, seed
            assert gateway.stats["executed"] == ncc.stats["tc_issued"], seed
            # nothing garbled ran: every telecommand executed succeeded
            assert all(tm.success for tm in payload.obc.tm_log), seed
            assert payload.decoder.loaded_design == "decod.turbo", seed
        assert flipped > 0
