"""Bounded buffers along NCC -> link -> gateway -> payload.

Exercises the pieces that keep memory bounded under load: link/TMTC/UDP
buffers with backpressure, the gateway's bounded upload store and the
payload's bounded switch queues.
"""

import tracemalloc
import zlib

import pytest

from repro.core import PayloadConfig, RegenerativePayload
from repro.ncc import BoundedUploadStore, NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.net.tmtc import TmtcLayer
from repro.net.udp import UdpSocket
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


def build_world():
    sim, ground, space, link = linked_pair()
    payload = RegenerativePayload(PayloadConfig(num_carriers=1, **SMALL))
    payload.boot(modem="modem.cdma")
    gw = SatelliteGateway(space, payload)
    ncc = NetworkControlCenter(ground, payload.registry, 2, GEOM)
    return sim, payload, gw, ncc


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

    def test_reupload_after_pop_goes_to_the_back(self):
        """A file popped and uploaded again is the newest, not the
        oldest: the next eviction takes the file that waited longest."""
        store = BoundedUploadStore(max_files=2)
        store["a"] = b"1"
        store["b"] = b"2"
        store.pop("a")
        store["a"] = b"3"
        store["c"] = b"4"
        assert set(store) == {"a", "c"}
        assert store.evicted == 1

    def test_finish_cycles_keep_memory_flat(self):
        """Resumable transfers pop every segment on finish; a soak of
        such cycles must not grow the store's memory with the number of
        files it has ever seen."""
        from repro.robustness.dtn import ResumableReceiver, segment_name

        store = BoundedUploadStore(max_files=8)
        rx = ResumableReceiver(store)
        blob = bytes(range(250))
        args = {"filename": "f.bit", "segments": 5, "size": len(blob),
                "crc32": zlib.crc32(blob) & 0xFFFFFFFF}

        def cycles(n):
            for _ in range(n):
                store.pop("f.bit", None)
                for i in range(5):
                    store[segment_name("f.bit", i)] = blob[i * 50 : (i + 1) * 50]
                assert rx.handle("xfer_finish", args)[0]

        cycles(100)  # the bounded history fills up first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cycles(2000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert list(store) == ["f.bit"]
        assert store.evicted == 0
        # 12,000 uploads: a per-upload record of even 10 bytes breaks this
        assert grown < 100_000

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
