"""Transactional TC/TM over UDP: timeouts, retransmission, dedup.

The bare campaign path (PR 1 and earlier) did ``sock.sendto(); yield
sock.recv()`` -- a telecommand or telemetry datagram dropped by the
lossy GEO link stranded the ground process forever.  This module turns
the TC round trip into a *transaction*:

- **Ground side** (:class:`TcTransactionClient`): each telecommand is
  sent with a ``tc_id`` and retransmitted under a
  :class:`~repro.robustness.policy.RetryPolicy`; the per-attempt listen
  window grows with the policy's backoff (a doubling RTO), stale or
  garbled replies are discarded by ``tc_id`` match, and a transaction
  that exhausts its budget raises
  :class:`~repro.robustness.policy.RetryExhausted` at a *bounded*
  simulated time.

- **Space side** (:class:`TcDedupCache`): the satellite gateway caches
  the encoded TM reply per ``tc_id``.  A retransmitted telecommand hits
  the cache and gets the *same* reply back without re-executing the
  command -- idempotent, exactly-once execution even when the first TM
  reply was lost after the command had already run (the "lost final
  ACK" failure mode).

All retransmissions, timeouts, stale replies and dedup hits are counted
through ``repro.obs`` probes (``ncc.tc`` / ``ncc.gateway``), so a
mission can *prove* exactly-once execution from the metrics snapshot.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Optional

from ..obs.probes import probe as _obs_probe
from ..sim import AnyOf
from .policy import RetryExhausted, RetryPolicy

__all__ = [
    "TC_PORT",
    "TcDedupCache",
    "TcTransactionClient",
    "TransactionError",
    "recv_within",
]

#: Well-known UDP port of the satellite telecommand server.
TC_PORT = 2001

#: Default retransmission schedule for TC transactions: first listen
#: window 2 s (> the 0.5 s GEO round trip plus on-board processing),
#: doubling up to 30 s, six attempts -- a dead link is detected in
#: bounded simulated time instead of hanging forever.
DEFAULT_TC_POLICY = RetryPolicy(
    max_attempts=6, base_delay=2.0, multiplier=2.0, max_delay=30.0, jitter=0.1
)


class TransactionError(RuntimeError):
    """A TC/TM transaction failed (no reply within the retry budget)."""


def recv_within(sim, sock, timeout: float):
    """Generator: receive one datagram or return ``None`` on timeout.

    Races ``sock.recv()`` against a simulated-time timeout; on timeout
    the pending receive is withdrawn from the socket queue so it cannot
    swallow a later datagram (see ``UdpSocket.cancel_recv``).
    """
    recv_ev = sock.recv()
    to = sim.timeout(timeout)
    result = yield AnyOf(sim, [recv_ev, to])
    if recv_ev in result:
        return result[recv_ev]
    sock.cancel_recv(recv_ev)
    return None


class TcTransactionClient:
    """Reliable telecommand round trips from a ground node.

    One client serves many transactions; each :meth:`request` opens an
    ephemeral UDP socket that stays bound across the retransmissions of
    that transaction (so a late reply to an earlier copy still lands).
    """

    def __init__(
        self,
        node,
        sat_address: int,
        port: int = TC_PORT,
        policy: Optional[RetryPolicy] = None,
        rng=None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.sat_address = sat_address
        self.port = port
        self.policy = policy or DEFAULT_TC_POLICY
        self.rng = rng
        self.stats = {
            "sent": 0,
            "retransmits": 0,
            "timeouts": 0,
            "stale": 0,
            "garbled": 0,
            "completed": 0,
            "exhausted": 0,
        }
        self._probe = _obs_probe("ncc.tc", node=node.name)

    def request(self, tc_id: int, action: str, args: dict):
        """Generator: send one TC reliably; returns the TM reply dict.

        Raises :class:`RetryExhausted` when every retransmission of the
        transaction went unanswered.
        """
        from ..net.udp import UdpSocket  # deferred: keeps import graph acyclic

        sock = UdpSocket(self.node.ip)
        datagram = json.dumps(
            {"tc_id": tc_id, "action": action, "args": args}
        ).encode()
        p = self._probe
        try:
            for attempt in range(self.policy.max_attempts):
                sock.sendto(datagram, self.sat_address, self.port)
                self.stats["sent"] += 1
                if p is not None:
                    p.count("tc_sent")
                if attempt > 0:
                    self.stats["retransmits"] += 1
                    if p is not None:
                        p.count("retransmits")
                        p.event(
                            "tc.retransmit",
                            t=self.sim.now,
                            tc_id=tc_id,
                            action=action,
                            attempt=attempt,
                        )
                window_end = self.sim.now + self.policy.delay_for(attempt, self.rng)
                while True:
                    remaining = window_end - self.sim.now
                    if remaining <= 0.0:
                        break
                    got = yield from recv_within(self.sim, sock, remaining)
                    if got is None:
                        break  # listen window expired
                    data, _src = got
                    try:
                        reply = json.loads(data.decode())
                    except (ValueError, UnicodeDecodeError):
                        self.stats["garbled"] += 1
                        if p is not None:
                            p.count("garbled_replies")
                        continue
                    if not isinstance(reply, dict) or reply.get("tc_id") != tc_id:
                        self.stats["stale"] += 1
                        if p is not None:
                            p.count("stale_replies")
                        continue
                    self.stats["completed"] += 1
                    if p is not None:
                        p.count("tm_received")
                        p.event(
                            "tc.complete",
                            t=self.sim.now,
                            tc_id=tc_id,
                            action=action,
                            attempts=attempt + 1,
                        )
                    return reply
                self.stats["timeouts"] += 1
                if p is not None:
                    p.count("timeouts")
            self.stats["exhausted"] += 1
            if p is not None:
                p.count("exhausted")
                p.event(
                    "tc.exhausted", t=self.sim.now, tc_id=tc_id, action=action
                )
            raise RetryExhausted(
                f"tc.{action}",
                self.policy.max_attempts,
                TransactionError(f"no TM reply for tc_id={tc_id}"),
            )
        finally:
            sock.close()


class TcDedupCache:
    """``tc_id`` -> encoded-TM-reply cache for idempotent TC execution.

    Bounded FIFO: the oldest entry is evicted past ``capacity``.  The
    window only needs to cover one transaction's retransmission spread,
    so a few hundred entries is generous for a single NCC.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, tc_id: int) -> bool:
        return tc_id in self._cache

    def get(self, tc_id: int) -> Optional[bytes]:
        """The cached reply for ``tc_id`` (None on first sight)."""
        reply = self._cache.get(tc_id)
        if reply is None:
            self.misses += 1
        else:
            self.hits += 1
        return reply

    def put(self, tc_id: int, reply: bytes) -> None:
        """Record the reply sent for ``tc_id`` (evicts FIFO past capacity)."""
        self._cache[tc_id] = reply
        self._cache.move_to_end(tc_id)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
