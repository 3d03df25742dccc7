"""COPS-driven reconfiguration policies (paper §3.3).

"Another set-up protocol appears very interesting: COPS.  It may be
employed to send reconfiguration policies (transmitted at the client or
at the server initiative)."

:class:`PolicyDrivenSatellite` runs the satellite-side PEP: it connects
to the NCC's PDP, asks for (or receives pushed) reconfiguration
decisions, enforces them through the on-board controller, and reports
the outcome.  :class:`ReconfigurationPolicyServer` is the NCC-side PDP
whose policy table maps request contexts to decisions.
"""

from __future__ import annotations

from typing import Dict

from ..core.obc import OnBoardController, Telecommand
from ..net import CopsClient, CopsServer, Decision, Report, Request
from ..net.simnet import Node
from ..sim import Simulator

__all__ = ["ReconfigurationPolicyServer", "PolicyDrivenSatellite"]


class ReconfigurationPolicyServer:
    """The NCC PDP: decides which personality each equipment should run.

    The policy table maps ``(equipment, trigger)`` to a function name;
    a request whose context matches gets a load decision, others get an
    empty (no-op) decision.
    """

    def __init__(self, node: Node, port: int = 3288) -> None:
        self.table: Dict[tuple[str, str], str] = {}
        self.decisions_issued = 0
        self.reports: list[Report] = []
        self.server = CopsServer(node.ip, self._decide, port=port)
        node.sim.process(self._collect_reports(), name="pdp-reports")

    def set_policy(self, equipment: str, trigger: str, function: str) -> None:
        """Install one policy row."""
        self.table[(equipment, trigger)] = function

    def _decide(self, req: Request) -> Decision:
        equipment = req.context.get("equipment", "")
        trigger = req.context.get("trigger", "")
        function = self.table.get((equipment, trigger))
        if function is None:
            return Decision(handle=req.handle, directives={})
        self.decisions_issued += 1
        return Decision(
            handle=req.handle,
            directives={"action": "reconfigure", "equipment": equipment,
                        "function": function},
        )

    def push(self, sat_address: int, equipment: str, function: str) -> None:
        """Server-initiative decision (unsolicited)."""
        self.decisions_issued += 1
        self.server.push_decision(
            sat_address,
            Decision(
                handle=0,
                directives={"action": "reconfigure", "equipment": equipment,
                            "function": function},
            ),
        )

    def _collect_reports(self):
        while True:
            rpt = yield self.server.reports.get()
            self.reports.append(rpt)


class PolicyDrivenSatellite:
    """The satellite PEP: enforces reconfiguration decisions on the OBC.

    Call :meth:`start` (a generator) inside a sim process; then either
    :meth:`request_policy` for client-initiative pulls, or let pushed
    decisions be enforced automatically by the background watcher.
    """

    def __init__(
        self,
        node: Node,
        obc: OnBoardController,
        pdp_address: int,
        local_port: int = 47101,
    ) -> None:
        self.sim: Simulator = node.sim
        self.obc = obc
        self.client = CopsClient(node.ip, pdp_address, local_port=local_port)
        self._handle = 0
        self.enforced: list[dict] = []

    def start(self):
        """Generator: open the COPS session and watch for pushes."""
        yield from self.client.open()
        self.sim.process(self._watch_pushes(), name="pep-watch")

    def _next_handle(self) -> int:
        self._handle += 1
        return self._handle

    def _enforce(self, decision: Decision) -> Report:
        directives = decision.directives
        if directives.get("action") != "reconfigure":
            return Report(decision.handle, True, {"noop": True})
        tc = Telecommand(
            self._next_handle(),
            "reconfigure",
            {"equipment": directives["equipment"],
             "function": directives["function"]},
        )
        tm = self.obc.execute(tc)
        outcome = {
            "equipment": directives["equipment"],
            "function": directives["function"],
            "success": tm.success,
        }
        self.enforced.append(outcome)
        return Report(decision.handle, tm.success, outcome)

    def request_policy(self, equipment: str, trigger: str):
        """Generator: client-initiative REQ -> enforce -> RPT."""
        req = Request(
            handle=self._next_handle(),
            context={"equipment": equipment, "trigger": trigger},
        )
        decision = yield from self.client.request(req)
        report = self._enforce(decision)
        self.client.report(report)
        return report

    def _watch_pushes(self):
        while True:
            decision = yield self.client.decisions.get()
            report = self._enforce(decision)
            self.client.report(report)
