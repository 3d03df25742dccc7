"""Resumable (CFDP-style) transfers: state, receiver, end-to-end resume."""

import zlib

import pytest

from repro.core.obc import OnBoardController
from repro.core.registry import FunctionRegistry
from repro.ncc.campaign import NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.robustness.dtn import (
    ContactPlan,
    LinkScheduler,
    OutageEvent,
    ResumableReceiver,
    ResumableUploader,
    TransferState,
    restart_from_zero_upload,
    segment_name,
)
from repro.sim import RngRegistry, Simulator

pytestmark = pytest.mark.dtn


class TestTransferState:
    def test_segment_accounting(self):
        st = TransferState.for_blob("f.bit", b"x" * 10000, segment_size=4096)
        assert st.num_segments == 3
        assert st.missing() == [0, 1, 2]
        st.completed.add(1)
        assert st.missing() == [0, 2]

    def test_empty_blob_has_one_segment(self):
        st = TransferState.for_blob("f.bit", b"", segment_size=4096)
        assert st.num_segments == 1
        assert st.overhead_ratio == 1.0

    def test_segment_name_is_stable(self):
        assert segment_name("f.bit", 7) == "f.bit.seg00007"


class TestResumableReceiver:
    def blob(self):
        return bytes(range(256)) * 8  # 2048 bytes

    def seed_segments(self, uploads, blob, seg=512, skip=()):
        n = -(-len(blob) // seg)
        for i in range(n):
            if i in skip:
                continue
            uploads[segment_name("f.bit", i)] = blob[i * seg : (i + 1) * seg]
        return n

    def finish_args(self, blob, segments):
        return {
            "filename": "f.bit",
            "segments": segments,
            "size": len(blob),
            "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
        }

    def test_status_reports_present_segments(self):
        uploads = {}
        rx = ResumableReceiver(uploads)
        blob = self.blob()
        n = self.seed_segments(uploads, blob, skip=(1,))
        ok, payload = rx.handle("xfer_status", {"filename": "f.bit", "segments": n})
        assert ok
        assert payload["present"] == [0, 2, 3]
        assert payload["assembled"] is False

    def test_finish_reports_missing(self):
        uploads = {}
        rx = ResumableReceiver(uploads)
        blob = self.blob()
        n = self.seed_segments(uploads, blob, skip=(2,))
        ok, payload = rx.handle("xfer_finish", self.finish_args(blob, n))
        assert not ok
        assert payload["missing"] == [2]

    def test_finish_assembles_and_cleans_up(self):
        uploads = {}
        rx = ResumableReceiver(uploads)
        blob = self.blob()
        n = self.seed_segments(uploads, blob)
        ok, payload = rx.handle("xfer_finish", self.finish_args(blob, n))
        assert ok and payload["size"] == len(blob)
        assert uploads["f.bit"] == blob
        assert not any(k.startswith("f.bit.seg") for k in uploads)

    def test_finish_is_idempotent(self):
        uploads = {}
        rx = ResumableReceiver(uploads)
        blob = self.blob()
        n = self.seed_segments(uploads, blob)
        rx.handle("xfer_finish", self.finish_args(blob, n))
        ok, payload = rx.handle("xfer_finish", self.finish_args(blob, n))
        assert ok and payload.get("already") is True
        assert uploads["f.bit"] == blob

    def test_crc_mismatch_purges_segments(self):
        uploads = {}
        rx = ResumableReceiver(uploads)
        blob = self.blob()
        n = self.seed_segments(uploads, blob)
        uploads[segment_name("f.bit", 1)] = b"corrupted!" * 51
        args = self.finish_args(blob, n)
        args["size"] = len(blob)
        ok, payload = rx.handle("xfer_finish", args)
        assert not ok
        assert payload["missing"] == list(range(n))
        assert not any(k.startswith("f.bit.seg") for k in uploads)

    def test_unknown_action_rejected(self):
        ok, payload = ResumableReceiver({}).handle("xfer_evil", {})
        assert not ok and "unknown" in payload["error"]


class _Host:
    def __init__(self):
        self.obc = OnBoardController()


def ground_segment(outages=(), windows=()):
    sim = Simulator()
    reg = RngRegistry(7)
    ground = Node(sim, "ncc", 1)
    space = Node(sim, "sat", 2)
    link = Link(sim, delay=0.25, rate_bps=1e6)
    link.attach(ground)
    link.attach(space)
    from repro.robustness.dtn import ContactWindow

    plan = ContactPlan(tuple(ContactWindow(s, e) for s, e in windows))
    sched = LinkScheduler(
        link, plan, tuple(OutageEvent(s, d) for s, d in outages), name="test"
    )
    gateway = SatelliteGateway(space, _Host())
    receiver = ResumableReceiver(gateway.uploads)
    gateway.attach_transfer(receiver)
    ncc = NetworkControlCenter(
        ground, FunctionRegistry(), sat_address=2, rng=reg.stream("jitter")
    )
    return sim, ncc, gateway, sched


class TestResumableUpload:
    def test_clean_link_costs_exactly_one_file(self):
        sim, ncc, gateway, sched = ground_segment()
        up = ResumableUploader(ncc, sched, segment_size=4096)
        blob = bytes(range(256)) * 32  # 8192 bytes
        done = {}

        def driver():
            done["state"] = yield from up.upload("f.bit", blob, "tftp")

        sim.process(driver())
        sim.run(until=200.0)
        st = done["state"]
        assert st.finished and st.resumes == 0
        assert st.bytes_sent == len(blob)
        assert gateway.uploads["f.bit"] == blob

    def test_blackout_resume_never_resends_completed_segments(self):
        """The ISSUE acceptance numbers: a mid-transfer blackout costs
        the resumable path < 1.5x the file size while restart-from-zero
        pays >= 2x on the identical outage timeline."""
        blob = bytes(range(256)) * 128  # 32768 bytes
        outages = ((12.0, 60.0),)

        sim, ncc, gateway, sched = ground_segment(outages=outages)
        up = ResumableUploader(ncc, sched, segment_size=4096)
        done = {}

        def driver():
            yield sim.timeout(1.0)
            done["state"] = yield from up.upload("f.bit", blob, "tftp")

        sim.process(driver())
        sim.run(until=400.0)
        st = done["state"]
        assert st.finished
        assert st.resumes >= 1  # the blackout actually interrupted it
        assert gateway.uploads["f.bit"] == blob
        assert st.overhead_ratio < 1.5

        # the naive baseline on an identical world pays the full file again
        sim2, ncc2, gateway2, sched2 = ground_segment(outages=outages)
        naive = {}

        def naive_driver():
            yield sim2.timeout(1.0)
            naive["bytes"] = yield from restart_from_zero_upload(
                ncc2, "f.bit", blob, "tftp", scheduler=sched2
            )

        sim2.process(naive_driver())
        sim2.run(until=400.0)
        assert naive["bytes"] >= 2 * len(blob)
        assert st.bytes_sent < naive["bytes"]

    def test_upload_waits_for_first_contact_window(self):
        sim, ncc, gateway, sched = ground_segment(windows=((30.0, 500.0),))
        up = ResumableUploader(ncc, sched, segment_size=4096)
        blob = b"q" * 4096
        done = {}

        def driver():
            done["state"] = yield from up.upload("f.bit", blob, "tftp")
            done["t"] = sim.now

        sim.process(driver())
        sim.run(until=600.0)
        assert done["state"].finished
        assert done["t"] > 30.0  # nothing moved before the pass rose
        assert gateway.uploads["f.bit"] == blob

    def test_no_further_contact_raises(self):
        from repro.robustness.dtn import TransferError

        sim, ncc, gateway, sched = ground_segment(windows=((1.0, 2.0),))
        up = ResumableUploader(ncc, sched, segment_size=512)
        outcome = {}

        def driver():
            yield sim.timeout(5.0)  # after the only window closed
            try:
                yield from up.upload("f.bit", b"z" * 4096, "tftp")
            except TransferError as exc:
                outcome["error"] = str(exc)

        sim.process(driver())
        sim.run(until=100.0)
        assert "no further contact" in outcome["error"]

    def test_journal_state_survives_requeue(self):
        """Re-uploading the same file reuses the journal; a changed blob
        invalidates the checkpoint."""
        sim, ncc, gateway, sched = ground_segment()
        up = ResumableUploader(ncc, sched, segment_size=4096)
        blob = b"a" * 8192

        def driver():
            yield from up.upload("f.bit", blob, "tftp")
            yield from up.upload("f.bit", blob, "tftp")  # idempotent repeat

        sim.process(driver())
        sim.run(until=300.0)
        st = up.journal["f.bit"]
        assert st.finished
        # a different blob under the same name resets the state
        st2 = TransferState.for_blob("f.bit", b"b" * 100, 4096)
        assert st2.crc32 != st.crc32
