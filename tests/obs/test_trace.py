"""Unit tests for repro.obs.trace: ring buffer, spans, canonical hashing."""

import pytest

from repro.obs.trace import Tracer


class TestRingBuffer:
    def test_emit_and_read_in_order(self):
        tr = Tracer(capacity=16)
        for i in range(5):
            tr.emit("k", t=float(i), i=i)
        evs = list(tr.events())
        assert [e.seq for e in evs] == [0, 1, 2, 3, 4]
        assert [e.t for e in evs] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(tr) == 5
        assert tr.total == 5
        assert tr.dropped == 0

    def test_eviction_drops_oldest(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.emit("k", t=float(i), i=i)
        evs = list(tr.events())
        assert len(evs) == 4
        assert [e.fields["i"] for e in evs] == [6, 7, 8, 9]
        assert tr.total == 10
        assert tr.dropped == 6
        # seq numbering is global, not per-ring
        assert [e.seq for e in evs] == [6, 7, 8, 9]

    def test_capacity_one(self):
        tr = Tracer(capacity=1)
        tr.emit("a")
        tr.emit("b")
        assert [e.kind for e in tr.events()] == ["b"]
        assert tr.dropped == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestClock:
    def test_default_clock_is_zero(self):
        tr = Tracer()
        ev = tr.emit("k")
        assert ev.t == 0.0

    def test_bound_clock(self):
        now = {"t": 1.5}
        tr = Tracer(clock=lambda: now["t"])
        assert tr.emit("k").t == 1.5
        now["t"] = 3.0
        assert tr.emit("k").t == 3.0
        tr.set_clock(None)
        assert tr.emit("k").t == 0.0


class TestCanonicalHash:
    def test_identical_traces_hash_identically(self):
        def build():
            tr = Tracer(capacity=8)
            tr.emit("a", t=0.5, x=1, y="s")
            tr.emit("b", t=1.25, z=[1, 2])
            return tr

        assert build().hash() == build().hash()
        assert build().canonical() == build().canonical()

    def test_field_order_does_not_matter(self):
        t1, t2 = Tracer(), Tracer()
        t1.emit("k", t=1.0, a=1, b=2)
        t2.emit("k", t=1.0, b=2, a=1)
        assert t1.hash() == t2.hash()

    def test_any_difference_changes_hash(self):
        base = Tracer()
        base.emit("k", t=1.0, a=1)
        for mutant_fields in ({"a": 2}, {"a": 1, "b": 0}):
            m = Tracer()
            m.emit("k", t=1.0, **mutant_fields)
            assert m.hash() != base.hash()
        m = Tracer()
        m.emit("k", t=1.0000001, a=1)
        assert m.hash() != base.hash()

    def test_evicted_events_participate_via_header(self):
        # same retained window, different eviction history -> different hash
        t1 = Tracer(capacity=2)
        t2 = Tracer(capacity=2)
        for i in range(4):
            t1.emit("k", t=float(i), i=i)
        for i in range(2, 4):
            t2.emit("k", t=float(i), i=i)
        assert [e.fields["i"] for e in t1.events()] == [
            e.fields["i"] for e in t2.events()
        ]
        assert t1.hash() != t2.hash()

    def test_canonical_is_bytes_with_header(self):
        tr = Tracer(capacity=4)
        tr.emit("k", t=0.0)
        data = tr.canonical()
        assert isinstance(data, bytes)
        assert data.startswith(b"# trace total=1 dropped=0 capacity=4\n")
