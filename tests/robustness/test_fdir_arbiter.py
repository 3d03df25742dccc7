"""Tests for the FDIR recovery-ladder arbiter.

Uses the scenario traffic world as the fixture (3 carriers, redundant
demod pairs, seeded library, watchdog, degraded-mode policy) but feeds
the health monitors synthetic diagnostics instead of running the DSP
chain, so each test exercises exactly one ladder decision.
"""

import pytest

from repro.robustness.fdir import DEFAULT_FALLBACKS, LADDER, FdirArbiter
from repro.scenarios import build_traffic_world

pytestmark = pytest.mark.fdir

CLEAN = {
    "uw_metric": 0.95,
    "timing_lock": 0.031,
    "carrier_lock": 0.73,
    "snr_db": 11.0,
}
NOISE = {
    "uw_metric": 0.59,
    "timing_lock": 0.015,
    "carrier_lock": 0.16,
    "snr_db": -4.0,
}
ALL = [0, 1, 2]


@pytest.fixture
def world():
    return build_traffic_world()


def feed(world, carrier, diag, n=1):
    for _ in range(n):
        world.bank.observe_burst(carrier, diag)


def trip(world, carrier, diag=None):
    feed(world, carrier, diag or NOISE, n=world.bank.thresholds.trip_count)
    assert world.bank.monitor(carrier).tripped


class TestLadder:
    def test_ladder_order(self):
        assert LADDER == ("reacquire", "reload", "fallback", "isolate")

    def test_patience_validation(self, world):
        with pytest.raises(ValueError):
            FdirArbiter(world.payload, world.bank, patience=0)

    def test_no_trip_no_action(self, world):
        for k in ALL:
            feed(world, k, CLEAN)
        assert world.arbiter.step(served=ALL) == []

    def test_first_rung_is_reacquire(self, world):
        trip(world, 1)
        done = world.arbiter.step(served=ALL)
        assert done == [(1, "reacquire")]

    def test_escalation_walks_the_ladder(self, world):
        """A persistent fault climbs reacquire -> reload -> fallback."""
        seen = []
        for _ in range(12):
            trip(world, 0)  # re-trip after each action resets streaks
            for k, a in world.arbiter.step(served=ALL):
                seen.append(a)
            if "fallback" in seen:
                break
        assert seen[:3] == ["reacquire", "reload", "fallback"]
        # the fallback actually swapped the personality
        assert world.payload.demods[0].loaded_design == "modem.tdma.robust"

    def test_cooldown_blocks_consecutive_actions(self, world):
        trip(world, 0)
        assert world.arbiter.step(served=ALL) == [(0, "reacquire")]
        trip(world, 0)
        # patience=2: the next two passes are cooldown
        assert world.arbiter.step(served=ALL) == []
        assert world.arbiter.step(served=ALL) == []
        assert world.arbiter.step(served=ALL) == [(0, "reload")]

    def test_recovery_resets_the_rung(self, world):
        trip(world, 2)
        world.arbiter.step(served=ALL)
        # the fault goes away: alarm clears after clear_count good bursts
        feed(world, 2, CLEAN, n=world.bank.thresholds.clear_count)
        assert not world.bank.monitor(2).tripped
        world.arbiter.step(served=ALL)
        assert world.arbiter.recoveries
        # a later fault starts from the bottom again
        trip(world, 2)
        done = world.arbiter.step(served=ALL)
        assert done == [(2, "reacquire")]

    def test_stale_trip_without_fresh_bad_burst_waits(self, world):
        trip(world, 0)
        world.arbiter.step(served=ALL)
        world.arbiter.step(served=ALL)
        world.arbiter.step(served=ALL)  # cooldown drained
        feed(world, 0, CLEAN)  # most recent burst is fine
        assert world.arbiter.step(served=ALL) == []


class TestGuards:
    def test_common_mode_veto_freezes_ladder(self, world):
        for k in ALL:
            trip(world, k)
        assert world.bank.common_mode(among=ALL)
        assert world.arbiter.step(served=ALL) == []

    def test_permanent_fault_jumps_to_isolate(self, world):
        pair = world.payload.demods[1]
        pair.mark_unit_failed(pair.active)
        trip(world, 1, diag={"equipment_failed": "latch-up"})
        done = world.arbiter.step(served=ALL)
        assert done == [(1, "isolate")]
        assert pair.active is pair.spare
        assert pair.operational

    def test_shed_carriers_are_not_judged(self, world):
        trip(world, 2)
        assert world.arbiter.step(served=[0, 1]) == []


class TestTerminal:
    def _kill_both(self, world, k):
        pair = world.payload.demods[k]
        pair.mark_unit_failed(pair.primary)
        pair.mark_unit_failed(pair.spare)
        return pair

    def test_double_fault_latches_safe_mode_and_sheds(self, world):
        pair = self._kill_both(world, 0)
        trip(world, 0, diag={"equipment_failed": "terminal"})
        done = world.arbiter.step(served=ALL)
        assert done == [(0, "isolate")]
        assert pair.terminal
        assert pair.name in world.watchdog.safe_mode
        assert world.watchdog.safe_mode[pair.name].get("terminal") is True
        assert 0 in world.policy.terminal
        assert 0 not in world.policy.active
        assert ("terminal" in {a[2] for a in world.arbiter.actions})

    def test_terminal_carrier_is_never_acted_on_again(self, world):
        self._kill_both(world, 0)
        trip(world, 0, diag={"equipment_failed": "terminal"})
        world.arbiter.step(served=ALL)
        n = len(world.arbiter.actions)
        trip(world, 0, diag={"equipment_failed": "terminal"})
        assert world.arbiter.step(served=ALL) == []
        assert len(world.arbiter.actions) == n


class TestDecoder:
    def _crc_storm(self, world, served=ALL):
        """Clean demod metrics but failing CRCs on every served carrier."""
        for _ in range(world.bank.thresholds.trip_count + 1):
            for k in served:
                world.bank.observe_burst(k, CLEAN)
                world.bank.observe_decode(k, False)

    def test_crc_storm_reloads_decoder(self, world):
        self._crc_storm(world)
        done = world.arbiter.step(served=ALL)
        assert (-1, "decoder_reload") in done

    def test_single_carrier_crc_failures_do_not_blame_decoder(self, world):
        for _ in range(6):
            for k in ALL:
                world.bank.observe_burst(k, CLEAN)
            world.bank.observe_decode(0, False)
            world.bank.observe_decode(1, True)
            world.bank.observe_decode(2, True)
        done = world.arbiter.step(served=ALL)
        assert not any(c == -1 for c, _ in done)

    def test_decoder_fallback_after_reload_fails_to_help(self, world):
        arb = FdirArbiter(
            world.payload,
            world.bank,
            watchdog=world.watchdog,
            policy=world.policy,
            fallbacks={**DEFAULT_FALLBACKS, "decod.conv": "decod.turbo"},
            patience=1,
        )
        self._crc_storm(world)
        assert (-1, "decoder_reload") in arb.step(served=ALL)
        arb.step(served=ALL)  # cooldown
        self._crc_storm(world)
        done = arb.step(served=ALL)
        assert (-1, "decoder_fallback") in done
        assert world.payload.decoder.loaded_design == "decod.turbo"
