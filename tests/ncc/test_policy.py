"""Tests for COPS-driven reconfiguration policies."""

import pytest

from repro.core import PayloadConfig, RegenerativePayload
from repro.ncc import PolicyDrivenSatellite, ReconfigurationPolicyServer
from repro.net import Link, Node
from repro.sim import Simulator

GEOM = (8, 8, 32)
SMALL = dict(fpga_rows=GEOM[0], fpga_cols=GEOM[1], fpga_bits_per_clb=GEOM[2])


def setup_policy_scenario():
    sim = Simulator()
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(sim, delay=0.25, rate_bps=1e6)
    link.attach(ground)
    link.attach(space)
    payload = RegenerativePayload(PayloadConfig(num_carriers=2, **SMALL))
    payload.boot(modem="modem.cdma")
    # the bitstreams the policies will command must be on board
    for name in ("modem.cdma", "modem.tdma"):
        payload.obc.library.store(payload.registry.get(name).bitstream_for(*GEOM))
    pdp = ReconfigurationPolicyServer(ground)
    pep = PolicyDrivenSatellite(space, payload.obc, pdp_address=1)
    return sim, payload, pdp, pep


class TestClientInitiative:
    def test_request_enforce_report_loop(self):
        sim, payload, pdp, pep = setup_policy_scenario()
        pdp.set_policy("demod0", "traffic-growth", "modem.tdma")
        results = {}

        def scenario(sim):
            yield from pep.start()
            report = yield from pep.request_policy("demod0", "traffic-growth")
            results["report"] = report

        sim.process(scenario(sim))
        sim.run(until=120)
        assert results["report"].success
        assert payload.demods[0].loaded_design == "modem.tdma"
        assert payload.demods[1].loaded_design == "modem.cdma"

    def test_no_matching_policy_is_noop(self):
        sim, payload, pdp, pep = setup_policy_scenario()
        results = {}

        def scenario(sim):
            yield from pep.start()
            report = yield from pep.request_policy("demod0", "unknown-trigger")
            results["report"] = report

        sim.process(scenario(sim))
        sim.run(until=120)
        assert results["report"].success
        assert results["report"].detail.get("noop")
        assert payload.demods[0].loaded_design == "modem.cdma"  # unchanged

    def test_pdp_receives_reports(self):
        sim, payload, pdp, pep = setup_policy_scenario()
        pdp.set_policy("demod0", "go", "modem.tdma")

        def scenario(sim):
            yield from pep.start()
            yield from pep.request_policy("demod0", "go")

        sim.process(scenario(sim))
        sim.run(until=120)
        assert len(pdp.reports) == 1
        assert pdp.reports[0].success
        assert pdp.decisions_issued == 1


class TestServerInitiative:
    def test_pushed_decision_enforced(self):
        """'transmitted at ... the server initiative'."""
        sim, payload, pdp, pep = setup_policy_scenario()

        def scenario(sim):
            yield from pep.start()
            yield sim.timeout(1.0)

        def pusher(sim):
            yield sim.timeout(3.0)
            pdp.push(2, "demod1", "modem.tdma")

        sim.process(scenario(sim))
        sim.process(pusher(sim))
        sim.run(until=120)
        assert payload.demods[1].loaded_design == "modem.tdma"
        assert len(pep.enforced) == 1
        assert len(pdp.reports) == 1

    def test_push_failure_reported(self):
        """A decision naming a missing design fails and is reported so."""
        sim, payload, pdp, pep = setup_policy_scenario()

        def scenario(sim):
            yield from pep.start()
            yield sim.timeout(1.0)

        def pusher(sim):
            yield sim.timeout(3.0)
            pdp.push(2, "demod0", "modem.ofdm")  # not in the registry

        sim.process(scenario(sim))
        sim.process(pusher(sim))
        sim.run(until=120)
        assert len(pdp.reports) == 1
        assert not pdp.reports[0].success
        assert payload.demods[0].loaded_design == "modem.cdma"  # intact
