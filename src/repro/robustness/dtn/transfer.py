"""CFDP-style resumable file transfer across contact gaps.

The paper benchmarks TFTP, FTP and SCPS-FP for bitstream upload
(§3.3) -- all three restart a broken transfer from byte zero.  Over a
link that *disappears* mid-transfer (end of pass, rain blackout) that
turns a 60 s upload into an unbounded retry loop that re-sends the
whole file every pass.  CCSDS solved this with CFDP: checkpointed,
segment-addressed transfers that resume exactly where the link died.

This module layers that discipline *on top of* the existing clients,
without touching their wire behaviour:

- the ground :class:`ResumableUploader` splits a file into numbered
  segment files and pushes each through the configured protocol
  (TFTP/FTP/SCPS); per-segment completion is the checkpoint, kept in
  a :class:`TransferState` journal entry that survives the gap;
- after an interruption it re-syncs with an ``xfer_status`` gap report
  (the satellite lists the segments it actually holds -- CFDP's NAK),
  so a segment whose final ACK was lost in the blackout is **never
  re-sent**;
- an ``xfer_finish`` telecommand makes the space-side
  :class:`ResumableReceiver` reassemble the segments, verify the CRC-32
  and publish the file into the gateway upload store under its real
  name -- indistinguishable, to the ``store`` TC and the
  reconfiguration manager, from a classical single-shot upload.

Bytes actually offered to the link are accounted in
``TransferState.bytes_sent``: the acceptance yardstick is that a
mid-transfer blackout costs at most the segment in flight, keeping the
total under 1.5x the file size where restart-from-zero pays >= 2x
(:func:`restart_from_zero_upload` is that naive baseline).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ...net.ftp import FtpError
from ...net.scps import ScpsError
from ...net.tftp import TftpError
from ...obs.probes import probe as _obs_probe
from ..policy import RetryExhausted

__all__ = [
    "ResumableReceiver",
    "ResumableUploader",
    "TransferError",
    "TransferState",
    "restart_from_zero_upload",
    "segment_name",
]

#: one transfer attempt failed in a resumable way (dead link, timeout)
_SEGMENT_RETRY_ON = (TftpError, FtpError, ScpsError, OSError)

#: telecommand actions served by the space-side receiver
XFER_ACTIONS = ("xfer_status", "xfer_finish")

#: resumes one resumable upload may take before it gives up
MAX_RESUMES = 64
#: whole-file attempts of the restart-from-zero baseline
MAX_RESTART_ATTEMPTS = 16
#: seconds an upload waits past a contact's start before sending
SETTLE_S = 0.5


class TransferError(Exception):
    """A resumable transfer cannot make further progress."""


def segment_name(filename: str, idx: int) -> str:
    """Wire name of one segment file."""
    return f"{filename}.seg{idx:05d}"


@dataclass
class TransferState:
    """Checkpointed state of one resumable upload (the CFDP 'MIB' entry)."""

    filename: str
    size: int
    crc32: int
    segment_size: int
    completed: Set[int] = field(default_factory=set)
    bytes_sent: int = 0
    attempts: int = 0
    resumes: int = 0
    segments_resent: int = 0
    finished: bool = False

    @property
    def num_segments(self) -> int:
        return max(1, -(-self.size // self.segment_size))

    def missing(self) -> List[int]:
        return [i for i in range(self.num_segments) if i not in self.completed]

    @property
    def overhead_ratio(self) -> float:
        """Bytes offered to the link over the file size (1.0 = perfect)."""
        return self.bytes_sent / self.size if self.size else 1.0

    @classmethod
    def for_blob(
        cls, filename: str, blob: bytes, segment_size: int
    ) -> "TransferState":
        return cls(
            filename=filename,
            size=len(blob),
            crc32=zlib.crc32(blob) & 0xFFFFFFFF,
            segment_size=segment_size,
        )


class ResumableUploader:
    """Ground-side checkpointed upload over the classical N3 clients.

    ``ncc`` is a :class:`repro.ncc.NetworkControlCenter` (or anything
    with ``sim``, ``_upload_once`` and ``send_telecommand``);
    ``scheduler`` the
    :class:`~repro.robustness.dtn.contact.LinkScheduler` the uploader
    consults to sleep through known gaps instead of burning retry
    budget into a dead link.
    """

    def __init__(
        self,
        ncc,
        scheduler,
        segment_size: int,
    ) -> None:
        if segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        self.ncc = ncc
        self.sim = ncc.sim
        self.scheduler = scheduler
        self.segment_size = segment_size
        #: per-file transfer state (the checkpoint journal)
        self.journal: Dict[str, TransferState] = {}
        self.stats = {
            "transfers": 0,
            "completed": 0,
            "segments_sent": 0,
            "resumes": 0,
            "gap_repairs": 0,
        }
        self._probe = _obs_probe("dtn.transfer", side="ground")

    # -- contact handling --------------------------------------------------
    def _wait_for_contact(self):
        """Generator: sleep until the link is (scheduled to be) up."""
        t = self.scheduler.next_contact(self.sim.now)
        if t is None:
            raise TransferError("no further contact scheduled")
        wait = max(0.0, t - self.sim.now) + SETTLE_S
        if wait > 0:
            yield self.sim.timeout(wait)

    # -- the resumable upload ----------------------------------------------
    def upload(self, filename: str, blob: bytes, protocol: str = "tftp"):
        """Generator: push ``blob`` as ``filename``, resuming across gaps.

        Returns the final :class:`TransferState` (``finished=True``).
        Raises :class:`TransferError` when no further contact exists or
        the resume budget is exhausted.
        """
        state = self.journal.get(filename)
        crc = zlib.crc32(blob) & 0xFFFFFFFF
        if state is None or state.size != len(blob) or state.crc32 != crc:
            state = TransferState.for_blob(filename, blob, self.segment_size)
            self.journal[filename] = state
        self.stats["transfers"] += 1
        p = self._probe
        if p is not None:
            p.count("transfers")
        interrupted = state.resumes > 0 or bool(state.completed)
        while True:
            if state.resumes > MAX_RESUMES:
                raise TransferError(
                    f"{filename}: resume budget exhausted "
                    f"({state.resumes} resumes)"
                )
            if not self.scheduler.effective(self.sim.now):
                yield from self._wait_for_contact()
                continue
            # -- gap report: after any interruption, ask the satellite
            #    which segments it actually holds (a segment whose final
            #    ACK died in the blackout is complete up there)
            if interrupted:
                try:
                    reply = yield from self.ncc.send_telecommand(
                        "xfer_status",
                        {"filename": filename,
                         "segments": state.num_segments},
                    )
                except RetryExhausted:
                    state.resumes += 1
                    self.stats["resumes"] += 1
                    yield from self._wait_for_contact()
                    continue
                if reply["success"]:
                    present = set(reply["payload"].get("present", ()))
                    repaired = present - state.completed
                    if repaired:
                        self.stats["gap_repairs"] += len(repaired)
                        if p is not None:
                            p.count("gap_repairs", len(repaired))
                    state.completed |= present
                interrupted = False
            # -- push the missing segments, checkpointing each
            try:
                for idx in state.missing():
                    lo = idx * state.segment_size
                    seg = blob[lo : lo + state.segment_size]
                    state.attempts += 1
                    state.bytes_sent += len(seg)
                    yield from self.ncc._upload_once(
                        segment_name(filename, idx), seg, protocol
                    )
                    state.completed.add(idx)
                    self.stats["segments_sent"] += 1
                    if p is not None:
                        p.count("segments_sent")
            except _SEGMENT_RETRY_ON:
                # the link died under us: checkpoint and sleep to the
                # next pass -- everything already completed stays done
                state.resumes += 1
                self.stats["resumes"] += 1
                interrupted = True
                if p is not None:
                    p.count("resumes")
                    p.event(
                        "dtn.transfer_interrupted",
                        t=self.sim.now,
                        file=filename,
                        done=len(state.completed),
                        total=state.num_segments,
                    )
                yield from self._wait_for_contact()
                continue
            # -- finish handshake: reassemble + CRC check on board
            try:
                reply = yield from self.ncc.send_telecommand(
                    "xfer_finish",
                    {
                        "filename": filename,
                        "segments": state.num_segments,
                        "size": state.size,
                        "crc32": state.crc32,
                    },
                )
            except RetryExhausted:
                state.resumes += 1
                self.stats["resumes"] += 1
                interrupted = True
                yield from self._wait_for_contact()
                continue
            if reply["success"]:
                state.finished = True
                self.stats["completed"] += 1
                if p is not None:
                    p.count("completed")
                    p.event(
                        "dtn.transfer_complete",
                        t=self.sim.now,
                        file=filename,
                        bytes_sent=state.bytes_sent,
                        size=state.size,
                        resumes=state.resumes,
                    )
                return state
            missing = reply["payload"].get("missing")
            if missing:
                # receiver-side gap (evicted segments): re-queue exactly those
                for i in missing:
                    state.completed.discard(int(i))
                state.segments_resent += len(missing)
                continue
            raise TransferError(
                f"{filename}: finish rejected: {reply['payload']}"
            )


def restart_from_zero_upload(
    ncc, filename: str, blob: bytes, protocol: str, scheduler
):
    """Generator: the naive baseline -- whole-file retry from byte zero.

    Mirrors what ``NetworkControlCenter.upload`` does under a retry
    policy, but accounts bytes offered per attempt and sleeps to the
    next contact between attempts.  Returns total ``bytes_sent``.
    No mission or benchmark runs it: it is the reference the DTN tests
    hold :class:`ResumableUploader` against (the resumable path must
    cost less than this baseline's >= 2x the file size across one
    mid-transfer blackout).
    """
    bytes_sent = 0
    sim = ncc.sim
    for _attempt in range(MAX_RESTART_ATTEMPTS):
        if not scheduler.effective(sim.now):
            t = scheduler.next_contact(sim.now)
            if t is None:
                raise TransferError("no further contact scheduled")
            yield sim.timeout(max(0.0, t - sim.now) + SETTLE_S)
            continue
        bytes_sent += len(blob)
        try:
            yield from ncc._upload_once(filename, blob, protocol)
            return bytes_sent
        except _SEGMENT_RETRY_ON:
            continue  # a link that died sleeps to the next pass above
    raise TransferError(
        f"{filename}: {MAX_RESTART_ATTEMPTS} attempts exhausted"
    )


class ResumableReceiver:
    """Space-side reassembly endpoint for resumable transfers.

    Attached to the :class:`~repro.ncc.SatelliteGateway`
    (``gateway.attach_transfer(receiver)``); serves the ``xfer_status``
    gap report and the ``xfer_finish`` reassembly handshake against the
    gateway upload store.  ``xfer_finish`` is idempotent: once the file
    is published with the right CRC, repeats answer success without
    touching the store.
    """

    def __init__(self, uploads: Dict[str, bytes], name: str = "sat") -> None:
        self.uploads = uploads
        self.name = name
        self.stats = {
            "status_queries": 0,
            "finish_ok": 0,
            "finish_missing": 0,
            "finish_crc_fail": 0,
            "assembled_bytes": 0,
        }
        self._probe = _obs_probe("dtn.transfer", side="space")

    def handle(self, action: str, args: dict) -> Tuple[bool, dict]:
        if action == "xfer_status":
            return self._status(args)
        if action == "xfer_finish":
            return self._finish(args)
        return False, {"error": f"unknown transfer action {action!r}"}

    def _present(self, filename: str, segments: int) -> List[int]:
        return [
            i for i in range(segments)
            if segment_name(filename, i) in self.uploads
        ]

    def _status(self, args: dict) -> Tuple[bool, dict]:
        self.stats["status_queries"] += 1
        p = self._probe
        if p is not None:
            p.count("status_queries")
        filename = args["filename"]
        segments = int(args["segments"])
        return True, {
            "filename": filename,
            "present": self._present(filename, segments),
            "assembled": filename in self.uploads,
        }

    def _finish(self, args: dict) -> Tuple[bool, dict]:
        filename = args["filename"]
        segments = int(args["segments"])
        size = int(args["size"])
        crc32 = int(args["crc32"])
        existing = self.uploads.get(filename)
        if existing is not None and (zlib.crc32(existing) & 0xFFFFFFFF) == crc32:
            # idempotent repeat of a completed transfer
            self.stats["finish_ok"] += 1
            return True, {"crc32": crc32, "size": len(existing),
                          "already": True}
        present = set(self._present(filename, segments))
        missing = sorted(set(range(segments)) - present)
        if missing:
            self.stats["finish_missing"] += 1
            return False, {"missing": missing}
        blob = b"".join(
            self.uploads[segment_name(filename, i)] for i in range(segments)
        )
        actual_crc = zlib.crc32(blob) & 0xFFFFFFFF
        if len(blob) != size or actual_crc != crc32:
            # corrupt reassembly: drop everything, make the ground
            # re-send from a clean slate
            self.stats["finish_crc_fail"] += 1
            for i in range(segments):
                self.uploads.pop(segment_name(filename, i), None)
            p = self._probe
            if p is not None:
                p.count("finish_crc_fail")
            return False, {"missing": list(range(segments)),
                           "error": "crc mismatch on reassembly"}
        self.uploads[filename] = blob
        for i in range(segments):
            self.uploads.pop(segment_name(filename, i), None)
        self.stats["finish_ok"] += 1
        self.stats["assembled_bytes"] += len(blob)
        p = self._probe
        if p is not None:
            p.count("finish_ok")
            p.count("assembled_bytes", len(blob))
        return True, {"crc32": crc32, "size": len(blob)}
