"""Tests for the link model, IP layer and UDP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IpPacket, Link, Node, UdpSocket
from repro.net.ip import _checksum
from repro.net.simnet import GEO_ONE_WAY_DELAY, arm_frame_drop
from repro.sim import RngRegistry, Simulator


def fresh(delay=0.25, rate=1e6, ber=0.0, rng=None):
    sim = Simulator()
    a = Node(sim, "ncc", 1)
    b = Node(sim, "sat", 2)
    link = Link(sim, delay=delay, rate_bps=rate, ber=ber, rng=rng)
    link.attach(a)
    link.attach(b)
    return sim, a, b, link


class TestLink:
    def test_geo_delay_constant(self):
        assert GEO_ONE_WAY_DELAY == 0.25

    def test_propagation_plus_serialization(self):
        sim, a, b, link = fresh(delay=0.1, rate=8000.0)  # 1 kB/s
        got = []
        b.frame_tap = lambda f: got.append((sim.now, f))
        a.send_frame(b"x" * 100)  # 800 bits -> 0.1 s serialization
        sim.run()
        assert len(got) == 1
        assert np.isclose(got[0][0], 0.1 + 0.1)

    def test_fifo_queueing_per_direction(self):
        sim, a, b, link = fresh(delay=0.0, rate=8000.0)
        got = []
        b.frame_tap = lambda f: got.append(sim.now)
        a.send_frame(b"x" * 100)
        a.send_frame(b"y" * 100)  # must wait for the first
        sim.run()
        assert np.isclose(got[0], 0.1)
        assert np.isclose(got[1], 0.2)

    def test_ber_drops_frames(self):
        rng = RngRegistry(0).stream("link")
        sim, a, b, link = fresh(ber=0.01, rng=rng)  # hopeless for 1kb frames
        got = []
        b.frame_tap = lambda f: got.append(f)
        for _ in range(50):
            a.send_frame(bytes(125))  # 1000 bits: P(ok) ~ 4e-5
        sim.run()
        assert len(got) == 0
        assert link.stats["dropped"] == 50

    def test_lossy_link_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, ber=0.1)

    def test_third_endpoint_rejected(self):
        sim, a, b, link = fresh()
        with pytest.raises(ValueError):
            link.attach(Node(sim, "c", 3))

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, delay=-1)
        with pytest.raises(ValueError):
            Link(sim, rate_bps=0)


class TestIp:
    def test_packet_roundtrip(self):
        pkt = IpPacket(src=1, dst=2, proto=17, ident=42, payload=b"hello")
        out = IpPacket.decode(pkt.encode())
        assert (out.src, out.dst, out.proto, out.ident, out.payload) == (
            1, 2, 17, 42, b"hello",
        )

    def test_checksum_detects_corruption(self):
        data = bytearray(IpPacket(1, 2, 17, 1, b"payload").encode())
        data[4] ^= 0xFF  # corrupt a header byte
        with pytest.raises(ValueError):
            IpPacket.decode(bytes(data))

    def test_checksum_ones_complement_zero(self):
        # checksum of data including its own checksum verifies to 0
        data = b"\x12\x34\x56\x78"
        ck = _checksum(data)
        import struct

        assert _checksum(data + struct.pack(">H", ck)) == 0

    def test_delivery_to_protocol_handler(self):
        sim, a, b, _ = fresh()
        got = []
        b.ip.register_protocol(99, lambda pkt: got.append(pkt.payload))
        a.ip.send(2, 99, b"data")
        sim.run()
        assert got == [b"data"]

    def test_wrong_destination_ignored(self):
        sim, a, b, _ = fresh()
        got = []
        b.ip.register_protocol(99, lambda pkt: got.append(pkt))
        a.ip.send(77, 99, b"data")  # no node 77 on this hop
        sim.run()
        assert got == []

    def test_fragmentation_reassembly(self):
        sim, a, b, _ = fresh()
        got = []
        b.ip.register_protocol(99, lambda pkt: got.append(pkt.payload))
        payload = bytes(range(256)) * 20  # 5120 bytes > 1024 MTU
        a.ip.send(2, 99, payload)
        sim.run()
        assert got == [payload]
        assert a.ip.stats["fragments"] > 1

    def test_fragment_loss_means_no_delivery(self):
        rng = RngRegistry(1).stream("l")
        sim, a, b, link = fresh(ber=2e-4, rng=rng)
        got = []
        b.ip.register_protocol(99, lambda pkt: got.append(pkt.payload))
        a.ip.send(2, 99, bytes(4096))
        sim.run()
        # with this BER most 1kB fragments drop; reassembly must not
        # deliver a partial datagram
        assert got == [] or got == [bytes(4096)]

    def test_mtu_validation(self):
        from repro.net.ip import IpStack

        sim = Simulator()
        node = Node(sim, "n", 5)
        with pytest.raises(ValueError):
            IpStack(node, mtu=10)

    @given(st.binary(min_size=0, max_size=3000))
    @settings(max_examples=30, deadline=None)
    def test_any_payload_survives_property(self, payload):
        sim, a, b, _ = fresh()
        got = []
        b.ip.register_protocol(99, lambda pkt: got.append(pkt.payload))
        a.ip.send(2, 99, payload)
        sim.run()
        assert got == [payload]


class TestUdp:
    def test_request_response_timing(self):
        sim, a, b, _ = fresh(delay=0.25)
        results = {}

        def server(sim):
            s = UdpSocket(b.ip, 69)
            data, (addr, port) = yield s.recv()
            s.sendto(b"pong", addr, port)

        def client(sim):
            s = UdpSocket(a.ip)
            s.sendto(b"ping", 2, 69)
            data, _src = yield s.recv()
            results["t"] = sim.now
            results["data"] = data

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run()
        assert results["data"] == b"pong"
        assert 0.5 < results["t"] < 0.52  # one RTT plus serialization

    def test_port_collision_rejected(self):
        sim, a, _, _ = fresh()
        UdpSocket(a.ip, 1000)
        with pytest.raises(OSError):
            UdpSocket(a.ip, 1000)

    def test_close_releases_port(self):
        sim, a, _, _ = fresh()
        s = UdpSocket(a.ip, 1000)
        s.close()
        UdpSocket(a.ip, 1000)  # rebind OK

    def test_closed_socket_rejects_io(self):
        sim, a, _, _ = fresh()
        s = UdpSocket(a.ip, 1000)
        s.close()
        with pytest.raises(OSError):
            s.sendto(b"x", 2, 1)
        with pytest.raises(OSError):
            s.recv()

    def test_ephemeral_ports_unique(self):
        sim, a, _, _ = fresh()
        s1 = UdpSocket(a.ip)
        s2 = UdpSocket(a.ip)
        assert s1.port != s2.port

    def test_cancel_recv_prevents_datagram_theft(self):
        """A withdrawn getter must not swallow a later datagram."""
        sim, a, b, _ = fresh()
        results = {}

        def client(sim):
            s = UdpSocket(a.ip, 500)
            ev = s.recv()
            yield sim.timeout(0.1)  # nothing arrives
            assert s.cancel_recv(ev)
            # now the real receive
            data, _src = yield s.recv()
            results["data"] = data

        def server(sim):
            s = UdpSocket(b.ip, 501)
            yield sim.timeout(0.2)
            s.sendto(b"late", 1, 500)

        sim.process(client(sim))
        sim.process(server(sim))
        sim.run()
        assert results["data"] == b"late"

    def test_flip_link_never_delivers_a_payload_that_was_not_sent(self):
        """IP checks only its own header: the UDP checksum is what keeps
        a bit-flipping link from delivering corrupted datagrams."""
        rng = RngRegistry(7).stream("link")
        sim = Simulator()
        a = Node(sim, "ncc", 1)
        b = Node(sim, "sat", 2)
        link = Link(sim, delay=0.1, ber=3e-4, rng=rng, error_mode="flip")
        link.attach(a)
        link.attach(b)
        rx = UdpSocket(b.ip, 4000)
        got = []

        def receiver(sim):
            while True:
                data, _src = yield rx.recv()
                got.append(data)

        sim.process(receiver(sim))
        tx = UdpSocket(a.ip, 4001)
        sent = [b"telecommand %03d " % i + bytes(range(40)) for i in range(200)]
        for payload in sent:
            tx.sendto(payload, 2, 4000)
        sim.run(until=10.0)
        assert link.stats["flipped_bits"] > 0
        assert b.ip.stats["bad"] > 0  # corrupted datagrams were discarded
        assert 0 < len(got) < len(sent)
        assert set(got) <= set(sent)

    def test_checksum_discards_every_single_bit_error(self):
        """Any one flipped bit of the UDP datagram fails the checksum.
        (A 16-bit one's-complement sum can miss two opposite flips
        16 bits apart, so the guarantee is per single error.)"""
        sim, a, b, _ = fresh()
        got = []
        UdpSocket(b.ip, 4000)._on_datagram = lambda data, *src: got.append(data)
        frames = []
        a.send_frame = frames.append  # capture the encoded frame
        UdpSocket(a.ip, 4001).sendto(b"store decod.turbo", 2, 4000)
        (frame,) = frames
        pkt = IpPacket.decode(frame)
        for bit in range(8 * len(pkt.payload)):
            flipped = bytearray(pkt.payload)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            b.ip.receive_frame(
                IpPacket(pkt.src, pkt.dst, pkt.proto, pkt.ident, bytes(flipped)).encode()
            )
        assert got == []
        # a flip in the 16-bit length field fails the length check first
        assert b.ip.stats["bad"] == 8 * len(pkt.payload) - 16
        b.ip.receive_frame(frame)
        assert got == [b"store decod.turbo"]

    def test_port_range_validation(self):
        sim, a, _, _ = fresh()
        with pytest.raises(ValueError):
            UdpSocket(a.ip, 0)
        with pytest.raises(ValueError):
            UdpSocket(a.ip, 70000)


class TestFrameDrop:
    def _receiver(self, sim, node, port):
        got = []
        sock = UdpSocket(node.ip, port)

        def rx():
            while True:
                data, _src = yield sock.recv()
                got.append(data)

        sim.process(rx())
        return got

    def test_frame_drop_drops_exactly_n_then_passes(self):
        sim, a, b, _ = fresh(delay=0.1)
        got = self._receiver(sim, b, 5000)
        state = arm_frame_drop(b, count=2)
        tx = UdpSocket(a.ip, 5001)
        for i in range(5):
            tx.sendto(bytes([i]), 2, 5000)
        sim.run(until=10)
        assert state == {"left": 0, "dropped": 2}
        assert got == [b"\x02", b"\x03", b"\x04"]

    def test_source_port_filter_drops_only_that_port(self):
        sim, a, b, _ = fresh(delay=0.1)
        got = self._receiver(sim, b, 5000)
        state = arm_frame_drop(b, count=2, src_port=7000)
        a.send_frame(b"not an IP frame")  # passes the filter untouched
        other = UdpSocket(a.ip, 5001)
        replies = UdpSocket(a.ip, 7000)
        for i in range(3):
            other.sendto(b"other %d" % i, 2, 5000)
            replies.sendto(b"reply %d" % i, 2, 5000)
        sim.run(until=10)
        assert state == {"left": 0, "dropped": 2}
        assert got == [b"other 0", b"other 1", b"other 2", b"reply 2"]
        assert b.ip.stats["bad"] == 1

    def test_chains_to_an_installed_tap(self):
        sim, a, b, _ = fresh(delay=0.1)
        seen = []
        b.frame_tap = seen.append
        arm_frame_drop(b, count=1)
        a.send_frame(b"first")
        a.send_frame(b"second")
        sim.run(until=10)
        assert seen == [b"second"]
