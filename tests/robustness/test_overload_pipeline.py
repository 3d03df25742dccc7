"""End-to-end overload control through NCC -> link -> gateway -> payload.

Exercises the threaded-through pieces: bounded link/TMTC/UDP buffers
with backpressure, gateway-side deadline and admission shedding,
campaign-level deadline budgets, bounded switch queues and the CoDel
burst queues on the payload.
"""

import json

import pytest

from repro.core import PayloadConfig, RegenerativePayload
from repro.ncc import BoundedUploadStore, NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.net.tmtc import TmtcLayer
from repro.net.udp import UdpSocket
from repro.robustness.overload import AdmissionController, Deadline, DeadlineExceeded
from repro.sim import Simulator

pytestmark = pytest.mark.overload

GEOM = (8, 8, 32)
SMALL = dict(fpga_rows=GEOM[0], fpga_cols=GEOM[1], fpga_bits_per_clb=GEOM[2])


def linked_pair(**link_kw):
    sim = Simulator()
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(sim, delay=0.25, rate_bps=1e6, **link_kw)
    link.attach(ground)
    link.attach(space)
    return sim, ground, space, link


def build_world(admission=None):
    sim, ground, space, link = linked_pair()
    payload = RegenerativePayload(PayloadConfig(num_carriers=1, **SMALL))
    payload.boot(modem="modem.cdma")
    gw = SatelliteGateway(space, payload, admission=admission)
    ncc = NetworkControlCenter(ground, payload.registry, 2, GEOM)
    return sim, payload, gw, ncc


def drive(sim, gen, until=1e6):
    box = {}

    def main():
        try:
            box["value"] = yield from gen
        except BaseException as exc:  # noqa: BLE001
            box["error"] = exc

    sim.process(main())
    sim.run(until=until)
    return box


class TestLinkBacklogBound:
    def test_burst_past_backlog_drops_at_transmitter(self):
        sim, ground, space, link = linked_pair(max_backlog_frames=4)
        for _ in range(10):
            ground.send_frame(b"x" * 100)
        assert link.stats["backlog_dropped"] == 6
        assert link.backlog_of(ground) == 4
        assert link.backpressure(ground)
        sim.run(until=10.0)
        # backlog drains as serialization completes
        assert link.backlog_of(ground) == 0
        assert not link.backpressure(ground)

    def test_directions_are_independent(self):
        sim, ground, space, link = linked_pair(max_backlog_frames=2)
        ground.send_frame(b"a" * 50)
        ground.send_frame(b"b" * 50)
        assert link.backpressure(ground)
        assert not link.backpressure(space)
        space.send_frame(b"c" * 50)
        assert link.stats["backlog_dropped"] == 0


class TestTmtcBacklogBound:
    def test_ad_backlog_refuses_whole_sdu(self):
        sim, ground, space, _ = linked_pair()
        tx = TmtcLayer(ground, max_backlog_frames=4, window=1, rto=5.0)
        TmtcLayer(space)
        # window=1 means only one frame in flight; the rest backlogs
        assert tx.send_sdu(b"a" * 100, vc=0)
        for _ in range(4):
            tx.send_sdu(b"b" * 100, vc=0)
        assert tx.backpressure(vc=0)
        assert not tx.send_sdu(b"c" * 100, vc=0)
        assert tx.stats["backlog_dropped"] >= 1

    def test_reassembly_overflow_bounded(self):
        sim, ground, space, _ = linked_pair()
        tx = TmtcLayer(ground)
        rx = TmtcLayer(space, max_reassembly_bytes=512)
        got = []
        rx.register_handler(0, got.append)
        # a 4 KiB SDU exceeds the 512 B reassembly bound on the receiver
        tx.send_sdu(b"z" * 4096, vc=0, mode="BD")
        sim.run(until=30.0)
        assert got == []
        assert rx.stats["reassembly_overflow"] >= 1


class TestUdpRecvBound:
    def test_tail_drop_past_capacity(self):
        sim, ground, space, _ = linked_pair()
        server = UdpSocket(space.ip, 5000, recv_capacity=3)
        client = UdpSocket(ground.ip, 5001)
        for i in range(8):
            client.sendto(bytes([i]), 2, 5000)
        sim.run(until=10.0)
        assert server.pending() == 3
        assert server.dropped == 5


class TestGatewayShedding:
    def test_expired_deadline_shed_not_executed(self):
        sim, payload, gw, ncc = build_world()
        box = {}

        def main():
            # a deadline far shorter than the 0.5 s GEO round trip:
            # the TC arrives on board already expired
            d = Deadline.after(sim.now, 0.1)
            try:
                yield from ncc.send_telecommand(
                    "noop", {}, deadline=d, cls="p0"
                )
            except DeadlineExceeded as exc:
                box["shed"] = exc

        sim.process(main())
        sim.run(until=300.0)
        assert gw.stats["shed_expired"] >= 1
        assert gw.stats["executed"] == 0
        assert "shed" in box  # ground side also gave up at its budget
        assert ncc.stats["deadline_shed"] >= 1

    def test_shed_reply_not_dedup_cached(self):
        sim, payload, gw, ncc = build_world()
        sock = UdpSocket(ncc.node.ip)
        msg = {"tc_id": 77, "action": "noop", "args": {}, "deadline": 0.0}
        sock.sendto(json.dumps(msg).encode(), 2, 2001)
        sim.run(until=5.0)
        assert gw.stats["shed_expired"] == 1
        assert 77 not in gw.dedup

    def test_admission_sheds_low_priority_class(self):
        clockbox = {}
        sim, ground, space, link = linked_pair()
        payload = RegenerativePayload(PayloadConfig(num_carriers=1, **SMALL))
        payload.boot(modem="modem.cdma")
        admission = AdmissionController(lambda: sim.now, capacity=100.0)
        admission.shed("p2")
        gw = SatelliteGateway(space, payload, admission=admission)
        ncc = NetworkControlCenter(ground, payload.registry, 2, GEOM)
        replies = {}

        def main():
            replies["p2"] = yield from ncc.send_telecommand("noop", {}, cls="p2")
            replies["p0"] = yield from ncc.send_telecommand("noop", {}, cls="p0")

        sim.process(main())
        sim.run(until=300.0)
        assert replies["p2"]["success"] is False
        assert replies["p2"]["payload"]["shed"] is True
        assert gw.stats["shed_admission"] >= 1
        # p0 is never shed: it proceeds to execution (unknown action ->
        # rejected by the OBC, but it *reached* the OBC)
        assert gw.stats["shed_admission"] == 1

    def test_untagged_tc_unaffected_by_admission(self):
        sim, payload, gw, ncc = build_world(
            admission=AdmissionController(lambda: 0.0, capacity=0.0)
        )
        box = drive(sim, ncc.send_telecommand("noop", {}), until=300.0)
        # no cls tag -> no admission gate; the TC reached the OBC
        assert gw.stats["shed_admission"] == 0
        assert gw.stats["tc_received"] >= 1


class TestCampaignDeadline:
    def test_campaign_inside_budget_succeeds(self):
        sim, payload, gw, ncc = build_world()
        box = drive(
            sim,
            ncc.reconfigure_equipment(
                "demod0", "modem.tdma", protocol="tftp",
                deadline_budget=3600.0, priority="p0",
            ),
            until=4000.0,
        )
        assert "error" not in box
        assert box["value"].success

    def test_campaign_with_tiny_budget_sheds(self):
        sim, payload, gw, ncc = build_world()
        box = drive(
            sim,
            ncc.reconfigure_equipment(
                "demod0", "modem.tdma", protocol="tftp",
                deadline_budget=0.5, priority="p0",
            ),
            until=4000.0,
        )
        assert isinstance(box.get("error"), DeadlineExceeded)
        # the reconfigure TC never executed on board
        assert payload.demods[0].loaded_design != "modem.tdma"


class TestBoundedUploadStore:
    def test_evicts_oldest_and_counts(self):
        store = BoundedUploadStore(max_files=2, history_len=3)
        store["a"] = b"1"
        store["b"] = b"22"
        store["c"] = b"333"
        assert set(store) == {"b", "c"}
        assert store.evicted == 1
        assert list(store.history) == [("a", 1), ("b", 2), ("c", 3)]
        store["d"] = b"4444"
        assert store.history_evicted == 1

    def test_gateway_uses_bounded_store_by_default(self):
        sim, payload, gw, ncc = build_world()
        assert isinstance(gw.uploads, BoundedUploadStore)


class TestPayloadQueues:
    def test_packet_switch_bounded(self):
        from repro.core.payload import PacketSwitch

        sw = PacketSwitch(num_ports=1, queue_capacity=2)
        assert sw.route(b"\x00aa") == 0
        assert sw.route(b"\x00bb") == 0
        assert sw.backpressure(0)
        assert sw.route(b"\x00cc") is None
        assert sw.queue_dropped == 1
        assert sw.routed == 2
        sw.drain(0)
        assert not sw.backpressure(0)
