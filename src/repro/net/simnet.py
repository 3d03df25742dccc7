"""Simulated point-to-point links and network nodes.

The paper's reference scenario is a single hop: Network Control Center
<-> geostationary satellite ("the transfer is between two adjacent
points ... without routing").  :class:`Link` models that hop with the
three parameters that drive every protocol conclusion in §3.3:

- **propagation delay** (~0.25 s one way to GEO, so a 0.5 s
  round-trip that cripples stop-and-wait protocols),
- **data rate** (TC uplinks are narrow; serialization matters),
- **bit error rate** (residual errors drop frames and force ARQ).

A :class:`Node` owns an :class:`repro.net.ip.IpStack` and can be
attached to one or more links; :func:`arm_frame_drop` loses a counted
number of the frames arriving at one.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..obs.probes import probe as _obs_probe
from ..sim import Simulator

__all__ = ["Link", "Node", "GEO_ONE_WAY_DELAY", "arm_frame_drop"]

#: One-way propagation delay to a geostationary satellite (seconds).
GEO_ONE_WAY_DELAY = 0.25


class Link:
    """Full-duplex point-to-point link with delay, rate and BER.

    Frames are serialized FIFO per direction (a busy direction queues),
    then arrive ``delay`` seconds later.  Each frame survives with
    probability ``(1 - ber) ** bits``; corrupted frames are dropped (the
    link layer's CRC would discard them) and counted.

    The per-direction transmit backlog is **bounded**
    (``max_backlog_frames``): a frame offered to a direction whose
    modulator already has that many frames waiting is dropped at the
    transmitter and counted (``stats["backlog_dropped"]``) -- real
    modems have finite buffers, and an unbounded serialization queue
    is exactly the hidden unbounded queue overload control exists to
    remove.  :meth:`backlog_of` / :meth:`backpressure` expose the
    occupancy so upstream hops (TMTC AD sender, gateway) can defer
    instead of blind-firing into a full buffer.

    The link can also go **hard down** (:meth:`set_up`) -- end of a
    visibility pass, a rain blackout, a ground-station handover.  While
    down, offered frames are dropped at the transmitter and frames
    still in flight are lost at their would-be arrival instant (there
    is no receiver tracking the carrier); both are counted in
    ``stats["outage_dropped"]``.  Cumulative in-contact /
    out-of-contact time is tracked (:meth:`contact_stats`) for the
    disruption-tolerant operations layer
    (:mod:`repro.robustness.dtn`), which drives :meth:`set_up` from a
    deterministic contact plan plus unscheduled outage events.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float = GEO_ONE_WAY_DELAY,
        rate_bps: float = 1e6,
        ber: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        name: str = "link",
        error_mode: str = "drop",
        max_backlog_frames: int = 256,
    ) -> None:
        if delay < 0 or rate_bps <= 0:
            raise ValueError("delay must be >= 0 and rate positive")
        if not 0.0 <= ber < 1.0:
            raise ValueError("ber must be in [0, 1)")
        if ber > 0.0 and rng is None:
            raise ValueError("a lossy link needs an rng")
        if error_mode not in ("drop", "flip"):
            raise ValueError("error_mode must be 'drop' or 'flip'")
        if max_backlog_frames < 1:
            raise ValueError("max_backlog_frames must be >= 1")
        self.sim = sim
        self.delay = delay
        self.rate_bps = rate_bps
        self.ber = ber
        self.rng = rng
        self.name = name
        #: "drop" discards whole corrupted frames (a link-layer CRC
        #: would); "flip" delivers frames with independent bit errors,
        #: letting channel coding (e.g. the BCH CLTU) correct them.
        self.error_mode = error_mode
        self.max_backlog_frames = max_backlog_frames
        self._endpoints: list["Node"] = []
        # per-direction serialization cursor (when the TX becomes free)
        self._tx_free: dict[int, float] = {0: 0.0, 1: 0.0}
        # per-direction frames waiting for / in serialization
        self._backlog: dict[int, int] = {0: 0, 1: 0}
        self.stats = {
            "frames": 0,
            "dropped": 0,
            "bytes": 0,
            "backlog_dropped": 0,
            "outage_dropped": 0,
        }
        #: link state: True while the hop is usable (in contact)
        self.up = True
        self._state_since = 0.0
        self._contact_s = 0.0
        self._outage_s = 0.0
        self.transitions = 0
        self._probe = _obs_probe("net.link", link=name)

    # -- contact state -----------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Bring the link up or take it hard down (idempotent)."""
        if up == self.up:
            return
        now = self.sim.now
        elapsed = now - self._state_since
        if self.up:
            self._contact_s += elapsed
        else:
            self._outage_s += elapsed
        self.up = up
        self._state_since = now
        self.transitions += 1
        p = self._probe
        if p is not None:
            p.count("link_up" if up else "link_down")
            p.event("link.up" if up else "link.down", t=now, link=self.name)

    def contact_stats(self) -> dict:
        """Cumulative in/out-of-contact seconds (up to ``sim.now``)."""
        elapsed = self.sim.now - self._state_since
        contact = self._contact_s + (elapsed if self.up else 0.0)
        outage = self._outage_s + (0.0 if self.up else elapsed)
        return {
            "up": self.up,
            "contact_s": contact,
            "outage_s": outage,
            "transitions": self.transitions,
            "outage_dropped": self.stats["outage_dropped"],
        }

    def _outage_drop(self, where: str, nbytes: int) -> None:
        self.stats["outage_dropped"] += 1
        p = self._probe
        if p is not None:
            p.count("outage_dropped")
            p.event(
                "link.outage_drop", t=self.sim.now, where=where, bytes=nbytes
            )

    def attach(self, node: "Node") -> None:
        """Connect an endpoint (exactly two per link)."""
        if len(self._endpoints) >= 2:
            raise ValueError("link already has two endpoints")
        self._endpoints.append(node)
        node._links.append(self)

    def peer_of(self, node: "Node") -> "Node":
        """The other endpoint."""
        if node not in self._endpoints or len(self._endpoints) != 2:
            raise ValueError("link not fully attached")
        a, b = self._endpoints
        return b if node is a else a

    def backlog_of(self, sender: "Node") -> int:
        """Frames waiting for (or in) serialization in sender's direction."""
        return self._backlog[self._endpoints.index(sender)]

    def backpressure(self, sender: "Node") -> bool:
        """True when sender's direction can accept no more frames."""
        return self.backlog_of(sender) >= self.max_backlog_frames

    def transmit(self, sender: "Node", frame: bytes) -> None:
        """Send a frame to the peer (fire-and-forget, simulated time)."""
        peer = self.peer_of(sender)
        direction = self._endpoints.index(sender)
        bits = 8 * len(frame)
        ser = bits / self.rate_bps
        now = self.sim.now
        if not self.up:
            # hard-down link: nothing leaves the antenna
            self._outage_drop("tx", len(frame))
            return
        if self._backlog[direction] >= self.max_backlog_frames:
            # transmit buffer full: shed at the modulator, never queue
            # unboundedly in time.
            self.stats["backlog_dropped"] += 1
            p = self._probe
            if p is not None:
                p.count("backlog_dropped")
                p.event(
                    "overload.link_drop",
                    t=now,
                    link=self.name,
                    direction=direction,
                    backlog=self._backlog[direction],
                )
            return
        start = max(now, self._tx_free[direction])
        done = start + ser
        self._tx_free[direction] = done
        self._backlog[direction] += 1
        self.sim.call_at(done, lambda d=direction: self._tx_done(d))
        self.stats["frames"] += 1
        self.stats["bytes"] += len(frame)
        p = self._probe
        if p is not None:
            p.count("frames")
            p.count("bytes", len(frame))

        if self.ber > 0.0:
            if self.error_mode == "drop":
                p_ok = (1.0 - self.ber) ** bits
                if not (self.rng.random() < p_ok):
                    self.stats["dropped"] += 1
                    if p is not None:
                        p.count("dropped")
                        p.event("link.drop", t=now, bytes=len(frame))
                    return
            else:  # flip: deliver with independent bit errors
                n_err = int(self.rng.binomial(bits, self.ber))
                if n_err:
                    arr = np.frombuffer(frame, dtype=np.uint8).copy()
                    positions = self.rng.integers(0, bits, size=n_err)
                    for pos in positions:
                        arr[pos // 8] ^= 1 << (7 - (pos % 8))
                    frame = arr.tobytes()
                    self.stats["flipped_bits"] = (
                        self.stats.get("flipped_bits", 0) + n_err
                    )
                    if p is not None:
                        p.count("flipped_bits", n_err)
                        p.event("link.flip", t=now, bits=n_err)
        arrival = done + self.delay
        self.sim.call_at(arrival, lambda: self._arrive(peer, frame))

    def _arrive(self, peer: "Node", frame: bytes) -> None:
        if not self.up:
            # the link went down while the frame was in flight
            self._outage_drop("rx", len(frame))
            return
        peer._deliver(frame)

    def _tx_done(self, direction: int) -> None:
        self._backlog[direction] -= 1


class Node:
    """A network endpoint (NCC ground station or satellite platform)."""

    def __init__(self, sim: Simulator, name: str, address: int) -> None:
        from .ip import IpStack  # deferred: circular import

        self.sim = sim
        self.name = name
        self.address = address
        self._links: list[Link] = []
        self.ip = IpStack(self)
        #: when set, replaces the default frame delivery into the IP stack
        #: (the TMTC layer installs itself here to slide under IP)
        self.frame_tap: Optional[Callable[[bytes], None]] = None

    def send_frame(self, frame: bytes) -> None:
        """Transmit a raw frame on the node's (single-hop) link."""
        if not self._links:
            raise RuntimeError(f"{self.name} has no attached link")
        self._links[0].transmit(self, frame)

    def _deliver(self, frame: bytes) -> None:
        if self.frame_tap is not None:
            self.frame_tap(frame)
        else:
            self.ip.receive_frame(frame)


def arm_frame_drop(node: Node, count: int, src_port: Optional[int] = None) -> dict:
    """Drop the next ``count`` frames arriving at ``node``, then pass.

    With ``src_port``, only UDP datagrams from that source port are
    counted and dropped (e.g. the telecommand replies of
    :data:`repro.robustness.transactions.TC_PORT`); every other frame
    passes.  The tap chains to any ``frame_tap`` already installed.
    Returns the mutable state dict ``{"left": n, "dropped": m}``.
    """
    from .ip import PROTO_UDP, IpPacket  # deferred: circular import

    state = {"left": int(count), "dropped": 0}
    deliver = node.frame_tap or node.ip.receive_frame
    port = None if src_port is None else src_port.to_bytes(2, "big")

    def matches(frame: bytes) -> bool:
        if port is None:
            return True
        try:
            pkt = IpPacket.decode(frame)
        except ValueError:
            return False
        # a reply's first fragment carries the UDP header
        return pkt.proto == PROTO_UDP and not pkt.offset and pkt.payload[:2] == port

    def tap(frame: bytes) -> None:
        if state["left"] > 0 and matches(frame):
            state["left"] -= 1
            state["dropped"] += 1
            return
        deliver(frame)

    node.frame_tap = tap
    return state
