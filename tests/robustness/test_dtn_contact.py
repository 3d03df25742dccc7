"""Contact plans, outage events and the link scheduler."""

import pytest

from repro.core.obc import OnBoardController
from repro.core.registry import FunctionRegistry
from repro.ncc.campaign import NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.robustness.dtn import (
    ContactPlan,
    ContactWindow,
    LinkScheduler,
    OutageEvent,
)
from repro.sim import RngRegistry, Simulator

pytestmark = pytest.mark.dtn


def make_link():
    sim = Simulator()
    a = Node(sim, "gs", 1)
    b = Node(sim, "sat", 2)
    link = Link(sim, delay=0.25, rate_bps=1e6)
    link.attach(a)
    link.attach(b)
    return sim, a, b, link


class TestContactPlan:
    def test_empty_plan_is_permanent_contact(self):
        plan = ContactPlan()
        assert plan.permanent
        assert plan.in_contact(0.0) and plan.in_contact(1e9)
        assert plan.next_contact(42.0) == 42.0

    def test_window_queries(self):
        plan = ContactPlan(
            (ContactWindow(10.0, 20.0), ContactWindow(50.0, 70.0))
        )
        assert not plan.in_contact(5.0)
        assert plan.in_contact(10.0)
        assert not plan.in_contact(20.0)  # end-exclusive
        assert plan.window_at(55.0).start == 50.0
        assert plan.next_contact(0.0) == 10.0
        assert plan.next_contact(15.0) == 15.0  # already inside
        assert plan.next_contact(30.0) == 50.0
        assert plan.next_contact(80.0) is None

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            ContactPlan((ContactWindow(0.0, 20.0), ContactWindow(10.0, 30.0)))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            ContactPlan((ContactWindow(20.0, 10.0),))

    def test_outage_validation(self):
        sim, a, b, link = make_link()
        with pytest.raises(ValueError):
            LinkScheduler(link, ContactPlan(), (OutageEvent(5.0, -1.0),))


class TestLinkScheduler:
    def test_plan_drives_link_up_and_down(self):
        sim, a, b, link = make_link()
        plan = ContactPlan((ContactWindow(5.0, 10.0), ContactWindow(20.0, 30.0)))
        sched = LinkScheduler(link, plan)
        states = []

        def sampler(sim):
            for _ in range(35):
                states.append((sim.now, link.up))
                yield sim.timeout(1.0)

        sim.process(sampler(sim))
        sim.run(until=40.0)
        by_t = dict(states)
        assert by_t[0.0] is False
        assert by_t[6.0] is True
        assert by_t[12.0] is False
        assert by_t[25.0] is True
        assert by_t[31.0] is False
        assert sched.passes == 2
        st = sched.stats()
        # initial drop to out-of-contact at t=0, then 2 rises + 2 sets
        assert st["transitions"] == 5
        assert st["contact_s"] == pytest.approx(15.0)

    def test_outage_punches_hole_into_window(self):
        sim, a, b, link = make_link()
        plan = ContactPlan((ContactWindow(0.0, 100.0),))
        sched = LinkScheduler(link, plan, (OutageEvent(10.0, 5.0),))
        assert sched.effective(5.0)
        assert not sched.effective(12.0)
        assert sched.effective(15.0)
        # next_contact skips over the outage hole
        assert sched.next_contact(12.0) == 15.0
        sim.run(until=20.0)
        assert link.up

    def test_next_contact_exhausted_plan(self):
        sim, a, b, link = make_link()
        sched = LinkScheduler(link, ContactPlan((ContactWindow(1.0, 2.0),)))
        assert sched.next_contact(5.0) is None

    def test_next_contact_on_permanent_plan_skips_outages(self):
        sim, a, b, link = make_link()
        sched = LinkScheduler(
            link, ContactPlan(), (OutageEvent(10.0, 5.0), OutageEvent(15.0, 2.0))
        )
        assert sched.next_contact(3.0) == 3.0
        assert sched.next_contact(11.0) == 17.0  # back-to-back holes
        assert sched.next_contact(40.0) == 40.0

    def test_hard_down_drops_traffic_both_ways(self):
        """Frames offered or in flight during an outage are dropped."""
        sim, a, b, link = make_link()
        LinkScheduler(
            link, ContactPlan(), (OutageEvent(1.0, 5.0),), name="drop"
        )
        got = []
        b.frame_tap = got.append

        def talker(sim):
            a.send_frame(b"before")  # arrives at 0.25
            yield sim.timeout(0.9)
            a.send_frame(b"in-flight")  # sent up, arrives 1.15: dropped
            yield sim.timeout(1.0)
            a.send_frame(b"during")  # dropped at tx
            yield sim.timeout(5.0)
            a.send_frame(b"after")

        sim.process(talker(sim))
        sim.run(until=10.0)
        assert got == [b"before", b"after"]
        assert link.stats["outage_dropped"] == 2


class _Host:
    def __init__(self):
        self.obc = OnBoardController()


class TestTcAcrossOutage:
    def test_in_flight_tc_retransmitted_once(self):
        """The link drops while a status TC's reply is in flight: the
        NCC retransmits across the outage and the gateway answers the
        retransmission from its dedup cache -- executed exactly once."""
        sim, ground, space, link = make_link()
        # TC leaves at 1.0 and executes on board at ~1.25; its reply is
        # still in flight when the 8 s outage starts at 1.3
        sched = LinkScheduler(
            link, ContactPlan(), (OutageEvent(1.3, 8.0),), name="tc-drop"
        )
        gateway = SatelliteGateway(space, _Host())
        ncc = NetworkControlCenter(
            ground,
            FunctionRegistry(),
            sat_address=2,
            rng=RngRegistry(7).stream("jitter"),
        )
        done = {}

        def driver():
            yield sim.timeout(1.0)
            done["reply"] = yield from ncc.send_telecommand("status", {})
            done["t"] = sim.now

        sim.process(driver())
        sim.run(until=120.0)
        assert done["reply"]["success"]
        assert done["t"] > 9.3  # answered only after the outage ended
        assert link.stats["outage_dropped"] >= 1
        assert ncc.stats["retransmits"] >= 1
        assert ncc.stats["tc_issued"] == 1
        assert gateway.stats["executed"] == 1
        assert gateway.stats["dedup_hits"] >= 1
        assert sched.stats()["outages"] == 1
