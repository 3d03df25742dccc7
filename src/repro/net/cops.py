"""COPS-style policy protocol (RFC 2748 shapes) over TCP.

The paper (§3.3): "Another set-up protocol appears very interesting:
COPS.  It may be employed to send reconfiguration policies (transmitted
at the client or at the server initiative)."

Roles follow COPS: the satellite's reconfiguration manager is the
**PEP** (policy enforcement point, our :class:`CopsClient`) and the NCC
is the **PDP** (policy decision point, :class:`CopsServer`).  Three
message types are modeled -- Request (REQ), Decision (DEC) and Report
State (RPT) -- which is exactly the loop a reconfiguration policy needs:
the satellite asks/receives a decision ("load bitstream X on FPGA Y at
epoch T"), applies it, and reports the outcome.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict

from ..sim import Simulator, Store
from .ip import IpStack
from .tcp import TcpConnection, TcpListener

__all__ = ["Request", "Decision", "Report", "CopsServer", "CopsClient"]

_FRAME = struct.Struct(">BI")  # message type, body length
_T_REQ, _T_DEC, _T_RPT = 1, 2, 3


@dataclass
class Request:
    """PEP -> PDP: ask for a policy decision."""

    handle: int
    context: dict = field(default_factory=dict)


@dataclass
class Decision:
    """PDP -> PEP: the policy to enforce."""

    handle: int
    directives: dict = field(default_factory=dict)


@dataclass
class Report:
    """PEP -> PDP: outcome of enforcing a decision."""

    handle: int
    success: bool
    detail: dict = field(default_factory=dict)


def _send_msg(conn: TcpConnection, mtype: int, obj) -> None:
    body = json.dumps(asdict(obj)).encode()
    conn.send(_FRAME.pack(mtype, len(body)) + body)


def _recv_msg(conn: TcpConnection):
    """Generator: read one framed message -> (type, dict)."""
    from .ftp import _recv_exact

    hdr = yield from _recv_exact(conn, _FRAME.size)
    mtype, length = _FRAME.unpack(hdr)
    body = yield from _recv_exact(conn, length)
    return mtype, json.loads(body.decode())


class CopsServer:
    """The PDP (at the NCC): answers REQs via a policy function.

    ``policy(request: Request) -> Decision`` supplies the decisions;
    received Reports are queued on ``reports``.  The server can also
    push unsolicited decisions (the "server initiative" case).
    """

    def __init__(
        self,
        stack: IpStack,
        policy: Callable[[Request], Decision],
        port: int = 3288,
    ) -> None:
        self.sim: Simulator = stack.node.sim
        self.policy = policy
        self.listener = TcpListener(stack, port)
        self.reports: Store = Store(self.sim)
        self._clients: Dict[int, TcpConnection] = {}
        self.sim.process(self._serve(), name="cops-pdp")

    def _serve(self):
        while True:
            conn = yield self.listener.accept()
            self._clients[conn.remote[0]] = conn
            self.sim.process(self._session(conn), name="cops-session")

    def _session(self, conn: TcpConnection):
        try:
            while True:
                mtype, body = yield from _recv_msg(conn)
                if mtype == _T_REQ:
                    req = Request(**body)
                    dec = self.policy(req)
                    _send_msg(conn, _T_DEC, dec)
                elif mtype == _T_RPT:
                    self.reports.put(Report(**body))
        except Exception:
            self._clients.pop(conn.remote[0], None)

    def push_decision(self, client_addr: int, decision: Decision) -> None:
        """Unsolicited decision at the server's initiative."""
        conn = self._clients.get(client_addr)
        if conn is None:
            raise KeyError(f"no connected PEP at address {client_addr}")
        _send_msg(conn, _T_DEC, decision)


class CopsClient:
    """The PEP (on the satellite): requests, receives and reports.

    Unsolicited decisions pushed by the PDP land on ``decisions``.
    """

    def __init__(self, stack: IpStack, pdp_addr: int, port: int = 3288, local_port: int = 47000):
        self.sim: Simulator = stack.node.sim
        self.conn = TcpConnection(stack, local_port, pdp_addr, port)
        self.decisions: Store = Store(self.sim)
        self._pending: Dict[int, Store] = {}
        self._connected = False

    def open(self):
        """Generator: connect to the PDP and start the reader."""
        yield self.conn.connect()
        self._connected = True
        self.sim.process(self._reader(), name="cops-pep-reader")

    def _reader(self):
        try:
            while True:
                mtype, body = yield from _recv_msg(self.conn)
                if mtype == _T_DEC:
                    dec = Decision(**body)
                    waiter = self._pending.pop(dec.handle, None)
                    if waiter is not None:
                        waiter.put(dec)
                    else:
                        self.decisions.put(dec)
        except Exception:
            pass

    def request(self, req: Request):
        """Generator: send a REQ and return the matching Decision."""
        if not self._connected:
            raise OSError("open() the client first")
        waiter = Store(self.sim)
        self._pending[req.handle] = waiter
        _send_msg(self.conn, _T_REQ, req)
        dec = yield waiter.get()
        return dec

    def report(self, rpt: Report) -> None:
        """Send a Report State message."""
        if not self._connected:
            raise OSError("open() the client first")
        _send_msg(self.conn, _T_RPT, rpt)
