"""End-to-end reconfiguration campaigns (NCC -> satellite).

Ties every piece of the reproduction together: the NCC picks a design
from the registry, renders its bitstream, uploads it over the chosen
file-transfer protocol (TFTP / FTP / SCPS-FP) riding IP over the TM/TC
space link, commands the reconfiguration through a telecommand carried
on UDP, and verifies the CRC telemetry that comes back -- the complete
§3 scenario, in simulated time.

The campaign is **fault tolerant**:

- telecommands ride the :mod:`repro.robustness.transactions` layer --
  retransmitted under a :class:`~repro.robustness.RetryPolicy` with
  growing listen windows instead of blocking forever on a lost TC or
  TM datagram;
- uploads are retried under an upload policy
  (:func:`~repro.robustness.run_with_retry`), so one failed TFTP/FTP/
  SCPS transfer no longer aborts the campaign;
- the space side deduplicates telecommands by ``tc_id``
  (:class:`~repro.robustness.TcDedupCache`): a retransmitted TC whose
  reply was lost is answered from cache, never re-executed.

The command plane carries no deadlines or priority classes, and the
gateway sheds no telecommand.  Overload is shed on the demand plane
(admission, one bounded queue per class whose heads expire at the class
budget, the brownout ladder -- :mod:`repro.robustness.overload`), which
is where the missions offer more load than the payload can serve.

:class:`SatelliteGateway` is the space-side counterpart: it terminates
the upload protocols into the on-board bitstream library and maps the
telecommand port onto the on-board controller.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.obc import OnBoardController, Telecommand
from ..core.payload import RegenerativePayload
from ..core.registry import FunctionRegistry
from ..net import (
    FtpClient,
    FtpServer,
    ScpsFpReceiver,
    ScpsFpSender,
    TftpClient,
    TftpServer,
    UdpSocket,
)
from ..net.ftp import FtpError
from ..net.scps import ScpsError
from ..net.simnet import Node
from ..net.tftp import TftpError
from ..obs.probes import probe as _obs_probe
from ..robustness.policy import RetryPolicy, run_with_retry
from ..robustness.transactions import TC_PORT, TcDedupCache, TcTransactionClient
from ..sim import Simulator

__all__ = [
    "BoundedUploadStore",
    "CampaignResult",
    "NetworkControlCenter",
    "SatelliteGateway",
    "TC_PORT",
]

#: Default retry policy for bitstream uploads (three attempts; the
#: protocols' own ARQ handles per-block losses, this covers whole-
#: transfer failures such as a stalled stop-and-wait exchange).
DEFAULT_UPLOAD_POLICY = RetryPolicy(
    max_attempts=3, base_delay=5.0, multiplier=2.0, max_delay=60.0, jitter=0.1
)

#: Exceptions that mark one upload attempt as failed-but-retryable.
UPLOAD_RETRY_ON = (TftpError, FtpError, ScpsError, OSError)

#: Gateway bounds: telecommand replies kept for dedup, and telecommand
#: datagrams the TC socket queues before tail-dropping.
TC_DEDUP_CAPACITY = 256
TC_QUEUE_CAPACITY = 256

#: Campaign results the NCC keeps (older ones are counted, not kept).
MAX_RESULTS = 1024


@dataclass
class CampaignResult:
    """Outcome of one upload-and-reconfigure campaign."""

    function: str
    protocol: str
    upload_seconds: float
    command_seconds: float
    success: bool
    rolled_back: bool
    crc: Optional[int]
    telemetry: dict = field(default_factory=dict)
    #: the on-board watchdog latched this equipment into safe mode
    safe_mode: bool = False

    @property
    def total_seconds(self) -> float:
        return self.upload_seconds + self.command_seconds


def _normalize_telemetry(payload: dict) -> dict:
    """Guarantee the keys downstream consumers index, on every path.

    Historically the ``store``-failure path returned the raw error
    payload, so ``result.telemetry["crc"]`` / ``["rolled_back"]`` raised
    ``KeyError`` depending on *which* step failed.  Both result paths
    now pass through here.
    """
    out = dict(payload) if isinstance(payload, dict) else {"error": str(payload)}
    out.setdefault("crc", None)
    out.setdefault("rolled_back", False)
    out.setdefault("safe_mode", False)
    out.setdefault("final_function", None)
    return out


class BoundedUploadStore(dict):
    """Upload store with a size cap and a bounded transfer history.

    The TFTP/FTP/SCPS servers write completed transfers straight into
    this dict; a soak campaign uploading thousands of bitstreams must
    not keep every blob forever, so past ``max_files`` the oldest live
    upload is evicted FIFO (``evicted`` counts them).  The dict's
    insertion order is the FIFO, so a file popped and uploaded again
    counts as the newest.  ``history`` is a
    ``deque(maxlen=...)`` of ``(filename, size_bytes)`` records --
    telemetry for operators, bounded by construction; overflow of the
    history itself is counted in ``history_evicted``.
    """

    def __init__(self, max_files: int = 64, history_len: int = 256) -> None:
        if max_files < 1 or history_len < 1:
            raise ValueError("max_files and history_len must be >= 1")
        super().__init__()
        self.max_files = max_files
        self.history: deque[tuple[str, int]] = deque(maxlen=history_len)
        self.evicted = 0
        self.history_evicted = 0

    def __setitem__(self, key: str, value: bytes) -> None:
        if len(self.history) == self.history.maxlen:
            self.history_evicted += 1
        self.history.append((key, len(value)))
        super().__setitem__(key, value)
        while len(self) > self.max_files:
            super().__delitem__(next(iter(self)))
            self.evicted += 1


class SatelliteGateway:
    """Space-side servers: upload endpoints + telecommand port.

    Uploaded files land in a shared dict and are registered into the
    payload's bitstream library when the ``store`` TC arrives (keeping
    the upload path and the library bookkeeping separable, as §3.2 does).

    The TC server is **idempotent**: replies are cached per ``tc_id``
    (:class:`~repro.robustness.TcDedupCache`) and a duplicate --
    i.e. ground-retransmitted -- telecommand is answered from the cache
    without re-executing, so "lost final ACK" cannot double-execute a
    reconfiguration.  Dedup hits are counted on the ``ncc.gateway``
    probe and in :attr:`stats`.
    """

    def __init__(
        self,
        node: Node,
        payload: RegenerativePayload,
        uploads: Optional[Dict[str, bytes]] = None,
    ) -> None:
        self.node = node
        self.payload = payload
        self.obc: OnBoardController = payload.obc
        self.uploads: Dict[str, bytes] = (
            uploads if uploads is not None else BoundedUploadStore()
        )
        self.tftp = TftpServer(node.ip, self.uploads)
        self.ftp = FtpServer(node.ip, self.uploads)
        self.scps = ScpsFpReceiver(node.ip, files=self.uploads)
        self.dedup = TcDedupCache(capacity=TC_DEDUP_CAPACITY)
        #: optional :class:`repro.robustness.dtn.ResumableReceiver`
        #: serving the xfer_status / xfer_finish transfer handshake
        self.xfer = None
        self.stats = {
            "tc_received": 0,
            "executed": 0,
            "dedup_hits": 0,
            "rejected": 0,
        }
        self._probe = _obs_probe("ncc.gateway", node=node.name)
        self._tc_sock = UdpSocket(node.ip, TC_PORT, recv_capacity=TC_QUEUE_CAPACITY)
        node.sim.process(self._tc_server(), name="sat-tc-server")

    def attach_transfer(self, receiver) -> None:
        """Serve resumable-transfer telecommands against the upload store.

        ``receiver`` is a
        :class:`repro.robustness.dtn.ResumableReceiver`; the
        ``xfer_status`` gap report and ``xfer_finish`` reassembly
        handshake are then answered at the gateway (dedup-cached like
        any other TC), and a completed resumable transfer lands in
        :attr:`uploads` under its real filename -- invisible to the
        downstream ``store`` TC.
        """
        self.xfer = receiver

    def _tc_server(self):
        p = self._probe
        while True:
            data, (addr, port) = yield self._tc_sock.recv()
            self.stats["tc_received"] += 1
            if p is not None:
                p.count("tc_received")
            msg = None
            tc_id = -1
            try:
                msg = json.loads(data.decode())
                tc_id = msg["tc_id"] if isinstance(msg, dict) else -1
                # -- idempotent execution: duplicates answered from cache
                if isinstance(tc_id, int) and tc_id > 0:
                    cached = self.dedup.get(tc_id)
                    if cached is not None:
                        self.stats["dedup_hits"] += 1
                        if p is not None:
                            p.count("dedup_hits")
                            p.event(
                                "gateway.dedup",
                                t=self.node.sim.now,
                                tc_id=tc_id,
                            )
                        self._tc_sock.sendto(cached, addr, port)
                        continue
                if (
                    self.xfer is not None
                    and isinstance(msg, dict)
                    and msg.get("action") in ("xfer_status", "xfer_finish")
                ):
                    ok, payload = self.xfer.handle(
                        msg["action"], msg.get("args", {})
                    )
                    self.stats["executed"] += 1
                    if p is not None:
                        p.count("executed")
                    reply = {"tc_id": tc_id, "success": bool(ok),
                             "payload": _jsonable(payload)}
                    encoded = json.dumps(reply).encode()
                    if isinstance(tc_id, int) and tc_id > 0:
                        self.dedup.put(tc_id, encoded)
                    self._tc_sock.sendto(encoded, addr, port)
                    continue
                tc = Telecommand(msg["tc_id"], msg["action"], msg.get("args", {}))
                if tc.action == "store":
                    # resolve the uploaded file from the gateway store
                    fname = tc.args["file"]
                    blob = self.uploads.get(fname)
                    if blob is None:
                        raise KeyError(f"no uploaded file {fname!r}")
                    tc = Telecommand(
                        tc.tc_id,
                        "store",
                        {
                            "function": tc.args["function"],
                            "version": tc.args.get("version", 1),
                            "data": blob,
                        },
                    )
                tm = self.obc.execute(tc)
                self.stats["executed"] += 1
                if p is not None:
                    p.count("executed")
                reply = {"tc_id": tm.tc_id, "success": tm.success,
                         "payload": _jsonable(tm.payload)}
            except Exception as exc:
                self.stats["rejected"] += 1
                if p is not None:
                    p.count("rejected")
                reply = {"tc_id": tc_id if isinstance(tc_id, int) else -1,
                         "success": False, "payload": {"error": str(exc)}}
            encoded = json.dumps(reply).encode()
            if isinstance(tc_id, int) and tc_id > 0:
                self.dedup.put(tc_id, encoded)
            self._tc_sock.sendto(encoded, addr, port)


def _jsonable(obj):
    """Best-effort conversion of telemetry payloads to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


class NetworkControlCenter:
    """Ground-side campaign orchestration.

    ``tc_policy`` / ``upload_policy`` bound the retransmission budgets
    of the telecommand transaction layer and the upload retry loop;
    ``rng`` (a seeded ``numpy.random.Generator``, e.g. an
    ``RngRegistry`` stream) provides deterministic backoff jitter.  The
    defaults keep nominal campaigns byte-identical to the pre-robustness
    behaviour on a clean link: one TC datagram, one upload, no waiting.
    """

    def __init__(
        self,
        node: Node,
        registry: FunctionRegistry,
        sat_address: int,
        fpga_geometry: tuple[int, int, int] = (16, 16, 64),
        tc_policy: Optional[RetryPolicy] = None,
        upload_policy: Optional[RetryPolicy] = None,
        rng=None,
    ) -> None:
        self.node = node
        self.sim: Simulator = node.sim
        self.registry = registry
        self.sat_address = sat_address
        self.geometry = fpga_geometry
        self.rng = rng
        self.upload_policy = upload_policy or DEFAULT_UPLOAD_POLICY
        self.tc = TcTransactionClient(
            node, sat_address, policy=tc_policy, rng=rng
        )
        self._tc_id = 0
        #: bounded campaign history: soak runs issuing thousands of
        #: campaigns keep only the most recent :data:`MAX_RESULTS` (older
        #: ones are counted in ``results_evicted``, totals stay exact)
        self.results: deque[CampaignResult] = deque(maxlen=MAX_RESULTS)
        self.results_evicted = 0
        self._campaigns_total = 0
        self._campaigns_ok_total = 0
        #: optional :class:`repro.robustness.dtn.ResumableUploader`
        #: (see :meth:`attach_resumable`)
        self._resumable = None

    def attach_resumable(self, uploader) -> None:
        """Route every upload through a checkpointed resumable transfer.

        ``uploader`` is a
        :class:`repro.robustness.dtn.ResumableUploader` built around
        this NCC.  Once attached, :meth:`upload` (and therefore
        :meth:`reconfigure_equipment`) segments files, checkpoints
        per-segment completion, and resumes across contact gaps instead
        of re-sending whole files -- the counterpart gateway must have a
        :class:`~repro.robustness.dtn.ResumableReceiver` attached.
        """
        self._resumable = uploader

    def _record(self, result: CampaignResult) -> None:
        if len(self.results) == self.results.maxlen:
            self.results_evicted += 1
        self.results.append(result)
        self._campaigns_total += 1
        if result.success:
            self._campaigns_ok_total += 1

    @property
    def stats(self) -> dict:
        """Ground-side campaign counters (TC transactions + outcomes).

        ``tc_issued`` counts unique telecommand ids this NCC ever sent;
        together with the gateway's ``executed`` / ``dedup_hits``
        counters it is the exactly-once oracle the scenario soak sweeps
        assert: every issued TC executes exactly once no matter how many
        retransmissions the lossy ground link forced.
        """
        out = dict(self.tc.stats)
        out["tc_issued"] = self._tc_id
        out["campaigns"] = self._campaigns_total
        out["campaigns_ok"] = self._campaigns_ok_total
        out["results_evicted"] = self.results_evicted
        return out

    # -- telecommand round trip ------------------------------------------------
    def send_telecommand(self, action: str, args: dict):
        """Generator: one reliable TC transaction; returns the TM reply dict.

        The transaction layer retransmits on a sim-time timeout instead
        of blocking forever on a dropped TC or TM datagram, and raises
        :class:`~repro.robustness.RetryExhausted` once the policy budget
        is spent -- a dead link is detected at a *bounded* simulated
        time.
        """
        self._tc_id += 1
        reply = yield from self.tc.request(self._tc_id, action, args)
        return reply

    # -- uploads ----------------------------------------------------------------
    def _upload_once(self, filename: str, blob: bytes, protocol: str):
        """Generator: one upload attempt with the chosen N3 protocol."""
        if protocol == "tftp":
            client = TftpClient(self.node.ip, self.sat_address)
            yield from client.write(filename, blob)
        elif protocol == "ftp":
            client = FtpClient(self.node.ip, self.sat_address)
            yield from client.put(filename, blob)
        elif protocol == "scps":
            sender = ScpsFpSender(self.node.ip, self.sat_address, rate_bps=1e6)
            yield from sender.put(filename, blob)
        else:
            raise ValueError(f"unknown protocol {protocol!r}")

    def upload(self, filename: str, blob: bytes, protocol: str):
        """Generator: push a file, retrying failed transfers under policy."""
        if protocol not in ("tftp", "ftp", "scps"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if self._resumable is not None:
            yield from self._resumable.upload(filename, blob, protocol)
            return
        yield from run_with_retry(
            self.sim,
            lambda _attempt: self._upload_once(filename, blob, protocol),
            policy=self.upload_policy,
            rng=self.rng,
            retry_on=UPLOAD_RETRY_ON,
            name=f"upload.{protocol}",
        )

    # -- the full campaign ---------------------------------------------------------
    def reconfigure_equipment(
        self,
        equipment: str,
        function: str,
        protocol: str = "ftp",
        version: int = 1,
    ):
        """Generator: upload + store + reconfigure + collect telemetry.

        Returns a :class:`CampaignResult`.  Both the store-failure and
        the full-campaign result paths carry normalized telemetry (the
        ``crc`` / ``rolled_back`` / ``safe_mode`` keys are always
        present).
        """
        design = self.registry.get(function)
        bitstream = design.bitstream_for(*self.geometry)
        blob = bitstream.to_bytes()
        filename = f"{function}@{version}.bit"

        t0 = self.sim.now
        yield from self.upload(filename, blob, protocol)
        t_upload = self.sim.now - t0

        t1 = self.sim.now
        reply = yield from self.send_telecommand(
            "store",
            {"file": filename, "function": function, "version": version},
        )
        if not reply["success"]:
            telemetry = _normalize_telemetry(reply["payload"])
            result = CampaignResult(
                function=function,
                protocol=protocol,
                upload_seconds=t_upload,
                command_seconds=self.sim.now - t1,
                success=False,
                rolled_back=bool(telemetry["rolled_back"]),
                crc=telemetry["crc"],
                telemetry=telemetry,
                safe_mode=bool(telemetry["safe_mode"]),
            )
            self._record(result)
            return result
        reply = yield from self.send_telecommand(
            "reconfigure",
            {"equipment": equipment, "function": function, "version": version},
        )
        t_cmd = self.sim.now - t1
        telemetry = _normalize_telemetry(reply["payload"])
        result = CampaignResult(
            function=function,
            protocol=protocol,
            upload_seconds=t_upload,
            command_seconds=t_cmd,
            success=bool(reply["success"]),
            rolled_back=bool(telemetry["rolled_back"]),
            crc=telemetry["crc"],
            telemetry=telemetry,
            safe_mode=bool(telemetry["safe_mode"]),
        )
        self._record(result)
        return result
