"""Tests for the link-budget-driven degraded-mode policy."""

import pytest

from repro.core.linkbudget import regenerative_margin_db, shared_uplink_cn
from repro.dsp.tdma import FramePlan
from repro.robustness.fdir.degraded import DegradedModePolicy

pytestmark = pytest.mark.fdir


def make_policy(**kw):
    plan = FramePlan(num_carriers=3, slots_per_frame=4)
    for k in range(3):
        plan.assign(f"term-{k}a", k, 0)
        plan.assign(f"term-{k}b", k, 1)
    defaults = dict(
        down_cn_db=16.0,
        required_ber=1e-4,
        shed_margin_db=0.0,
        restore_margin_db=2.0,
        min_active=1,
    )
    defaults.update(kw)
    return plan, DegradedModePolicy(plan, **defaults)


class TestValidation:
    def test_hysteresis_band_must_be_ordered(self):
        plan = FramePlan(num_carriers=2, slots_per_frame=2)
        with pytest.raises(ValueError):
            DegradedModePolicy(plan, shed_margin_db=1.0, restore_margin_db=0.0)

    def test_priorities_must_be_permutation(self):
        plan = FramePlan(num_carriers=3, slots_per_frame=2)
        with pytest.raises(ValueError):
            DegradedModePolicy(plan, priorities=[0, 0, 1])

    def test_min_active_range(self):
        plan = FramePlan(num_carriers=3, slots_per_frame=2)
        with pytest.raises(ValueError):
            DegradedModePolicy(plan, min_active=4)


class TestShedRestore:
    def test_clear_sky_is_a_noop(self):
        _, pol = make_policy()
        assert pol.update(12.0) == []
        assert pol.active_carriers == [0, 1, 2]

    def test_deep_fade_sheds_by_priority(self):
        plan, pol = make_policy()
        actions = pol.update(6.0)  # margin ~ -2.4 dB
        # default priorities shed the highest index first
        assert actions == [("shed", 2), ("shed", 1)]
        assert pol.active_carriers == [0]
        # the shed carriers' slots were released
        assert plan.occupant(2, 0) is None
        assert plan.occupant(1, 0) is None
        assert plan.occupant(0, 0) == "term-0a"

    def test_shedding_concentrates_power_into_positive_margin(self):
        _, pol = make_policy()
        pol.update(6.0)
        assert pol.last_margin_db is not None
        assert pol.last_margin_db >= pol.shed_margin_db

    def test_restore_with_hysteresis(self):
        plan, pol = make_policy()
        pol.update(6.0)
        assert pol.active_carriers == [0]
        # fade gone: the per-carrier C/N the lone survivor now sees
        cn = shared_uplink_cn(12.0, 0.0, 3, 1)
        actions = pol.update(cn)
        assert ("restore", 1) in actions and ("restore", 2) in actions
        assert pol.active_carriers == [0, 1, 2]
        # assignments came back
        assert plan.occupant(1, 0) == "term-1a"
        assert plan.occupant(2, 1) == "term-2b"

    def test_marginal_clearing_does_not_restore(self):
        """Projected post-restore margin below the band: stay shed."""
        _, pol = make_policy()
        pol.update(6.0)
        # a C/N whose *projected* margin (one more carrier) is < 2 dB
        cn_req = 12.0 - regenerative_margin_db(12.0, 16.0, 1e-4)
        marginal = cn_req + 2.5  # fine for 1 carrier, not after dilution
        assert pol.update(marginal) == []
        assert pol.active_carriers == [0]

    def test_min_active_floor(self):
        _, pol = make_policy(min_active=2)
        pol.update(-20.0)  # hopeless fade
        assert len(pol.active_carriers) == 2

    def test_no_flapping_on_fluttering_fade(self):
        """A fade oscillating inside the hysteresis band causes at most
        one shed/restore cycle per carrier."""
        _, pol = make_policy()
        for cn in (8.0, 8.6, 8.0, 8.6, 8.0, 8.6):
            pol.update(cn)
        for k in range(3):
            assert pol.transitions_of(k) <= 2


class TestForceShed:
    def test_force_shed_is_permanent_and_rehomes(self):
        plan, pol = make_policy()
        rehomed = pol.force_shed(2, reason="double fault")
        assert rehomed == 2  # both terminals found free slots
        assert 2 in pol.terminal
        assert pol.active_carriers == [0, 1]
        # terminals now live on surviving carriers
        homes = {
            plan.occupant(k, s)
            for k in (0, 1)
            for s in range(plan.slots_per_frame)
        }
        assert {"term-2a", "term-2b"} <= homes
        # never restored, even in clear sky
        assert pol.update(shared_uplink_cn(12.0, 0.0, 3, 2)) == []
        assert 2 not in pol.active

    def test_force_shed_idempotent(self):
        _, pol = make_policy()
        assert pol.force_shed(1) == 2
        assert pol.force_shed(1) == 0
