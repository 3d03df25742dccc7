"""Tests for the TC/TM transaction layer: recv_within, client, dedup."""

import json

import pytest

from repro.net import Link, Node
from repro.net.udp import UdpSocket
from repro.robustness import (
    RetryExhausted,
    RetryPolicy,
    TC_PORT,
    TcDedupCache,
    TcTransactionClient,
    TransactionError,
)
from repro.net.simnet import arm_frame_drop
from repro.robustness.transactions import recv_within
from repro.sim import Simulator


def linked_pair(delay=0.25, ber=0.0):
    sim = Simulator()
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(sim, delay=delay, rate_bps=1e6, ber=ber)
    link.attach(ground)
    link.attach(space)
    return sim, ground, space, link


def start_echo_server(sim, node, mangle=None):
    """A minimal TC server: replies {"tc_id", "success": True} per datagram."""
    stats = {"served": 0}

    def server():
        sock = UdpSocket(node.ip, TC_PORT)
        while True:
            data, (addr, port) = yield sock.recv()
            stats["served"] += 1
            msg = json.loads(data.decode())
            reply = {"tc_id": msg["tc_id"], "success": True, "payload": {}}
            out = json.dumps(reply).encode()
            if mangle is not None:
                out = mangle(out, stats["served"])
            sock.sendto(out, addr, port)

    sim.process(server(), name="echo-tc-server")
    return stats


def drive(sim, gen, until=1e6):
    box = {}

    def main():
        try:
            box["value"] = yield from gen
            box["t_done"] = sim.now
        except BaseException as exc:  # noqa: BLE001
            box["error"] = exc
            box["t_error"] = sim.now

    sim.process(main())
    sim.run(until=until)
    return box


class TestRecvWithin:
    def test_returns_datagram_before_timeout(self):
        sim, ground, space, _ = linked_pair()
        server = UdpSocket(space.ip, 4000)

        def responder():
            data, (addr, port) = yield server.recv()
            server.sendto(b"pong", addr, port)

        sim.process(responder())
        client = UdpSocket(ground.ip, 4001)
        client.sendto(b"ping", 2, 4000)
        box = drive(sim, recv_within(sim, client, 10.0))
        data, (addr, _port) = box["value"]
        assert data == b"pong" and addr == 2

    def test_timeout_returns_none_without_swallowing_later_data(self):
        sim, ground, space, _ = linked_pair()
        client = UdpSocket(ground.ip, 4001)
        box = drive(sim, recv_within(sim, client, 1.0), until=50)
        assert box["value"] is None
        assert box["t_done"] == pytest.approx(1.0)
        # the cancelled recv must not eat a datagram that arrives later
        server = UdpSocket(space.ip, 4000)
        server.sendto(b"late", 1, 4001)
        box2 = drive(sim, recv_within(sim, client, 10.0), until=100)
        data, _src = box2["value"]
        assert data == b"late"


class TestTcTransactionClient:
    def test_clean_link_single_datagram(self):
        sim, ground, space, _ = linked_pair()
        served = start_echo_server(sim, space)
        client = TcTransactionClient(ground, sat_address=2)
        box = drive(sim, client.request(1, "status", {}))
        assert box["value"]["success"] is True
        assert served["served"] == 1
        assert client.stats["sent"] == 1
        assert client.stats["retransmits"] == 0
        assert client.stats["completed"] == 1

    def test_retransmits_through_dropped_frames(self):
        sim, ground, space, _ = linked_pair()
        served = start_echo_server(sim, space)
        drop = arm_frame_drop(space, count=2)  # first two TC copies vanish
        client = TcTransactionClient(
            ground, 2, policy=RetryPolicy(max_attempts=5, base_delay=2.0, jitter=0.0)
        )
        box = drive(sim, client.request(7, "status", {}))
        assert box["value"]["tc_id"] == 7
        assert drop["dropped"] == 2
        assert client.stats["retransmits"] == 2
        assert client.stats["timeouts"] == 2
        assert served["served"] == 1  # only the third copy arrived

    def test_dead_link_raises_bounded_retry_exhausted(self):
        sim, ground, space, link = linked_pair()
        start_echo_server(sim, space)
        link.set_up(False)  # the TC never reaches the satellite
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0, jitter=0.0)
        client = TcTransactionClient(ground, 2, policy=policy)
        box = drive(sim, client.request(3, "reconfigure", {"equipment": "demod0"}))
        err = box["error"]
        assert isinstance(err, RetryExhausted)
        assert isinstance(err.last_error, TransactionError)
        assert err.name == "tc.reconfigure"
        # the transaction fails at bounded *simulated* time: the sum of
        # the listen windows (1+2+4+8), not "never"
        assert box["t_error"] == pytest.approx(15.0)
        assert client.stats["exhausted"] == 1
        assert client.stats["sent"] == 4

    def test_stale_and_garbled_replies_are_filtered(self):
        sim, ground, space, _ = linked_pair()

        def mangle(out, served):
            if served == 1:
                return b"\xff\xfenot json"
            if served == 2:
                reply = json.loads(out.decode())
                reply["tc_id"] = 9999  # stale: some other transaction's id
                return json.dumps(reply).encode()
            return out

        start_echo_server(sim, space, mangle=mangle)
        client = TcTransactionClient(
            ground, 2, policy=RetryPolicy(max_attempts=5, base_delay=3.0, jitter=0.0)
        )
        box = drive(sim, client.request(5, "status", {}))
        assert box["value"]["tc_id"] == 5
        assert client.stats["garbled"] == 1
        assert client.stats["stale"] == 1

    def test_socket_released_after_transaction(self):
        sim, ground, space, _ = linked_pair()
        start_echo_server(sim, space)
        client = TcTransactionClient(ground, 2)
        before = len(getattr(ground.ip, "_udp_demux", {}))
        drive(sim, client.request(1, "status", {}))
        assert len(ground.ip._udp_demux) == before


class TestTcDedupCache:
    def test_miss_then_hit(self):
        cache = TcDedupCache()
        assert cache.get(1) is None
        cache.put(1, b"reply-1")
        assert 1 in cache
        assert cache.get(1) == b"reply-1"
        assert cache.hits == 1 and cache.misses == 1

    def test_fifo_eviction_past_capacity(self):
        cache = TcDedupCache(capacity=3)
        for i in range(1, 6):
            cache.put(i, f"r{i}".encode())
        assert len(cache) == 3
        assert 1 not in cache and 2 not in cache
        assert cache.get(5) == b"r5"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TcDedupCache(capacity=0)
