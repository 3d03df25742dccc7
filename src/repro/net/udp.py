"""UDP: connectionless datagram transport (paper §3.3: "UDP (for an
express transfer)").

Sockets are bound to ports on a node's IP stack; received datagrams
queue in a :class:`repro.sim.Store` so protocol processes can block on
``yield sock.recv()``.  Every datagram carries the RFC 768 checksum
over a pseudo-header (addresses, protocol, length), header and data:
IP only checks its own header, so without it a link that flips bits
would hand corrupted telecommands to the application.  A datagram
that fails the check is discarded and counted in the stack's
``stats["bad"]``.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..sim import Event, Store
from .ip import IpPacket, IpStack, PROTO_UDP, _checksum

__all__ = ["UdpSocket"]

_HDR = struct.Struct(">HHHH")  # src port, dst port, length, checksum
_PSEUDO = struct.Struct(">IIBBH")  # src addr, dst addr, zero, proto, length


def _udp_checksum(src: int, dst: int, datagram: bytes) -> int:
    """RFC 768 checksum of ``datagram`` (checksum field zeroed); a
    computed zero is sent as all ones."""
    pseudo = _PSEUDO.pack(src, dst, 0, PROTO_UDP, len(datagram))
    return _checksum(pseudo + datagram) or 0xFFFF


class UdpSocket:
    """A bound UDP endpoint.

    ``recv()`` returns an event yielding ``(payload, (src_addr, src_port))``.
    """

    # First ephemeral port.  The rolling counter is kept *per stack* (see
    # :meth:`_alloc_ephemeral`) so that independent simulation runs draw
    # identical port sequences; a class-level counter would bleed state
    # across runs and break trace determinism.
    _EPHEMERAL_BASE = 49152

    def __init__(
        self,
        stack: IpStack,
        port: Optional[int] = None,
        recv_capacity: Optional[int] = None,
    ) -> None:
        if recv_capacity is not None and recv_capacity < 1:
            raise ValueError("recv_capacity must be >= 1")
        self.stack = stack
        self.node = stack.node
        if port is None:
            port = UdpSocket._alloc_ephemeral(stack)
        if not 0 < port < 65536:
            raise ValueError("port out of range")
        demux = _demux_for(stack)
        if port in demux:
            raise OSError(f"port {port} already bound on {self.node.name}")
        self.port = port
        self._queue = Store(self.node.sim)
        #: bound on queued datagrams; ``None`` keeps the historical
        #: unbounded behaviour for short-lived protocol sockets
        self.recv_capacity = recv_capacity
        #: datagrams discarded because the receive queue was full
        self.dropped = 0
        demux[port] = self
        self.closed = False

    @staticmethod
    def _alloc_ephemeral(stack: IpStack) -> int:
        demux = _demux_for(stack)
        p = getattr(stack, "_udp_next_ephemeral", UdpSocket._EPHEMERAL_BASE)
        while p in demux:
            p += 1
        nxt = p + 1
        if nxt > 65000:
            nxt = UdpSocket._EPHEMERAL_BASE
        stack._udp_next_ephemeral = nxt
        return p

    def sendto(self, payload: bytes, addr: int, port: int) -> None:
        """Send one datagram."""
        if self.closed:
            raise OSError("socket closed")
        length = _HDR.size + len(payload)
        unsummed = _HDR.pack(self.port, port, length, 0) + payload
        ck = _udp_checksum(self.node.address, addr, unsummed)
        hdr = _HDR.pack(self.port, port, length, ck)
        self.stack.send(addr, PROTO_UDP, hdr + payload)

    def recv(self) -> Event:
        """Event yielding the next ``(payload, (src_addr, src_port))``."""
        if self.closed:
            raise OSError("socket closed")
        return self._queue.get()

    def cancel_recv(self, ev: Event) -> bool:
        """Withdraw a pending :meth:`recv` event (timeout races)."""
        return self._queue.cancel_get(ev)

    def pending(self) -> int:
        """Datagrams waiting in the receive queue."""
        return len(self._queue)

    def close(self) -> None:
        """Release the port."""
        if not self.closed:
            _demux_for(self.stack).pop(self.port, None)
            self.closed = True

    # -- stack plumbing ----------------------------------------------------
    def _on_datagram(self, payload: bytes, src_addr: int, src_port: int) -> None:
        if (
            self.recv_capacity is not None
            and len(self._queue) >= self.recv_capacity
        ):
            # bounded socket buffer: tail-drop like a real kernel
            self.dropped += 1
            return
        self._queue.put((payload, (src_addr, src_port)))


def _demux_for(stack: IpStack) -> dict:
    """Per-stack UDP port table (installs the protocol handler once)."""
    demux = getattr(stack, "_udp_demux", None)
    if demux is None:
        demux = {}
        stack._udp_demux = demux

        def handler(pkt: IpPacket) -> None:
            if len(pkt.payload) < _HDR.size:
                return
            sport, dport, length, ck = _HDR.unpack(pkt.payload[: _HDR.size])
            if length != len(pkt.payload):
                return
            data = pkt.payload[_HDR.size :]
            unsummed = _HDR.pack(sport, dport, length, 0) + data
            if _udp_checksum(pkt.src, pkt.dst, unsummed) != ck:
                stack.stats["bad"] += 1
                return
            sock = demux.get(dport)
            if sock is not None:
                sock._on_datagram(data, pkt.src, sport)

        stack.register_protocol(PROTO_UDP, handler)
    return demux
