"""Solid-state recorder: bounded store, priority eviction, playback."""

import pytest

from repro import obs
from repro.robustness.dtn import PRIORITY_CLASSES, SolidStateRecorder

pytestmark = pytest.mark.dtn


def rec_bytes(record):
    import json

    return len(json.dumps(record).encode())


class TestRecording:
    def test_records_below_capacity_are_never_lost(self):
        ssr = SolidStateRecorder(capacity_bytes=1 << 16)
        for i in range(50):
            assert ssr.record({"seq": i}, cls="p2")
        assert ssr.pending() == 50
        assert ssr.stats["shed"] == 0
        ssr.authorize(50)
        assert ssr.drain_authorized() == [{"seq": i} for i in range(50)]

    def test_unknown_class_rejected(self):
        ssr = SolidStateRecorder()
        with pytest.raises(ValueError):
            ssr.record({"x": 1}, cls="p9")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SolidStateRecorder(capacity_bytes=0)

    def test_oversized_record_dropped(self):
        ssr = SolidStateRecorder(capacity_bytes=64)
        assert not ssr.record({"blob": "x" * 500}, cls="p0")
        assert ssr.stats["dropped"] == 1
        assert ssr.pending() == 0


class TestEviction:
    def test_overflow_evicts_lowest_class_first(self):
        one = rec_bytes({"seq": 0, "cls": "p2"})
        ssr = SolidStateRecorder(capacity_bytes=one * 6)
        for i in range(3):
            ssr.record({"seq": i, "cls": "p2"}, cls="p2")
        for i in range(3):
            ssr.record({"seq": i, "cls": "p1"}, cls="p1")
        # store is full: p0 arrivals must displace p2 (oldest first)
        for i in range(2):
            assert ssr.record({"seq": i, "cls": "p0"}, cls="p0")
        assert ssr.shed_by_class["p2"] == 2
        assert ssr.shed_by_class["p0"] == 0
        assert ssr.pending("p2") == 1
        assert ssr.pending("p1") == 3
        assert ssr.pending("p0") == 2
        assert ssr.stats["evicted"] == 2

    def test_low_priority_never_displaces_high(self):
        one = rec_bytes({"seq": 0, "cls": "p0"})
        ssr = SolidStateRecorder(capacity_bytes=one * 2)
        ssr.record({"seq": 0, "cls": "p0"}, cls="p0")
        ssr.record({"seq": 1, "cls": "p0"}, cls="p0")
        # a p2 arrival cannot evict stored p0: it is itself dropped
        assert not ssr.record({"seq": 0, "cls": "p2"}, cls="p2")
        assert ssr.stats["dropped"] == 1
        assert ssr.pending("p0") == 2

    def test_conservation_laws_close(self):
        """recorded + dropped == offered; played + pending + evicted
        == recorded -- the invariants the scenario runner checks."""
        one = rec_bytes({"seq": 0, "cls": "p2"})
        ssr = SolidStateRecorder(capacity_bytes=one * 4)
        offered = 0
        for i in range(20):
            cls = PRIORITY_CLASSES[i % 3]
            ssr.record({"seq": i, "cls": cls}, cls=cls)
            offered += 1
        ssr.authorize(3)
        played = len(ssr.drain_authorized())
        st = ssr.status()
        assert st["recorded"] + st["dropped"] == offered
        assert played + st["pending"] + st["evicted"] == st["recorded"]

    def test_overflow_inside_obs_session_traces_each_shed(self):
        """With observability on, every eviction and drop is one
        ``dtn.recorder_shed`` event naming why -- recording never
        raises."""
        one = rec_bytes({"seq": 0, "cls": "p2"})
        with obs.session() as (_, tracer):
            ssr = SolidStateRecorder(capacity_bytes=one * 4)
            for i in range(20):
                cls = PRIORITY_CLASSES[i % 3]
                ssr.record({"seq": i, "cls": cls}, cls=cls)
            sheds = [e for e in tracer.events() if e.kind == "dtn.recorder_shed"]
        assert ssr.stats["recorded"] + ssr.stats["dropped"] == 20
        assert ssr.stats["shed"] > 0
        assert len(sheds) == ssr.stats["shed"]
        reasons = [e.fields["reason"] for e in sheds]
        assert reasons.count("evicted") == ssr.stats["evicted"]
        assert reasons.count("dropped") == ssr.stats["dropped"]


class TestPlayback:
    def test_nothing_released_without_authorization(self):
        ssr = SolidStateRecorder()
        ssr.record({"seq": 0}, cls="p1")
        assert ssr.drain_authorized() == []
        assert ssr.pending() == 1

    def test_budget_is_consumed_and_priority_ordered(self):
        ssr = SolidStateRecorder()
        ssr.record({"cls": "p2"}, cls="p2")
        ssr.record({"cls": "p0"}, cls="p0")
        ssr.record({"cls": "p1"}, cls="p1")
        ssr.authorize(2)
        out = ssr.drain_authorized()
        assert [r["cls"] for r in out] == ["p0", "p1"]
        assert ssr.authorized == 0
        assert ssr.drain_authorized() == []  # budget spent

    def test_max_records_chunks_a_large_budget(self):
        ssr = SolidStateRecorder()
        for i in range(10):
            ssr.record({"seq": i}, cls="p1")
        ssr.authorize(10)
        assert len(ssr.drain_authorized(max_records=4)) == 4
        assert ssr.authorized == 6

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SolidStateRecorder().authorize(-1)

    def test_status_snapshot(self):
        ssr = SolidStateRecorder(capacity_bytes=4096, name="tmrec")
        ssr.record({"seq": 0}, cls="p0")
        st = ssr.status()
        assert st["pending"] == 1
        assert st["pending_by_class"]["p0"] == 1
        assert st["capacity_bytes"] == 4096
        assert 0 < st["bytes_used"] <= 4096
