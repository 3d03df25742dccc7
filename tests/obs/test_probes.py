"""Tests for the session switch and the Probe hook."""

from repro import obs
from repro.obs.probes import probe
from repro.sim import Simulator


class TestSessionSwitch:
    def test_disabled_by_default(self):
        assert probe("any.subsystem") is None

    def test_session_enables_and_restores(self):
        assert probe("x") is None
        with obs.session() as (reg, tr):
            p = probe("x")
            assert p is not None
            p.count("c")
            p.event("e")
            assert reg.value("x.c") == 1
            assert [e.kind for e in tr.events()] == ["e"]
        assert probe("x") is None

    def test_session_restores_on_exception(self):
        try:
            with obs.session():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert probe("x") is None

    def test_nested_sessions_restore_outer(self):
        with obs.session() as (outer_reg, _):
            with obs.session() as (inner_reg, _):
                assert inner_reg is not outer_reg
                probe("x").count("c")
            probe("x").count("c", 2)
        assert probe("x") is None
        assert inner_reg.value("x.c") == 1
        assert outer_reg.value("x.c") == 2

    def test_explicit_instances(self):
        reg, tr = obs.Registry(), obs.Tracer(capacity=4)
        with obs.session(registry=reg, tracer=tr) as (r, t):
            assert r is reg and t is tr

class TestProbe:
    def test_series_naming_and_labels(self):
        with obs.session() as (reg, _):
            p = probe("net.link", link="uplink")
            p.count("frames", 3)
            p.gauge("depth", 7)
            p.observe("latency", 0.25)
            assert reg.value("net.link.frames", link="uplink") == 3
            assert reg.value("net.link.depth", link="uplink") == 7
            assert reg.value("net.link.latency", link="uplink")["count"] == 1

    def test_series_handles_are_cached(self):
        with obs.session():
            p = probe("x")
            assert p.counter("c") is p.counter("c")
            assert p.gauge_series("g") is p.gauge_series("g")
            assert p.histogram_series("h") is p.histogram_series("h")

    def test_events_merge_probe_labels(self):
        with obs.session() as (_, tr):
            p = probe("net.link", link="up")
            p.event("link.drop", t=1.5, bytes=540)
            (ev,) = list(tr.events())
            assert ev.kind == "link.drop"
            assert ev.fields == {"link": "up", "bytes": 540}
            assert ev.t == 1.5


class TestInstrumentedKernelLifecycle:
    def test_objects_built_outside_session_stay_silent(self):
        sim = Simulator()  # built while disabled
        with obs.session() as (reg, _):
            sim.timeout(1.0)
            sim.run()
            assert reg.value("sim.kernel.events_fired") is None

    def test_objects_built_inside_session_report(self):
        with obs.session() as (reg, tr):
            sim = Simulator()

            def proc(sim):
                yield sim.timeout(1.0)

            sim.process(proc(sim), name="p0")
            sim.run()
            assert reg.value("sim.kernel.events_fired") == sim.event_count
            assert reg.value("sim.kernel.processes_started") == 1
            assert reg.value("sim.kernel.processes_ended") == 1
            assert reg.value("sim.kernel.processes_alive") == 0
            lifetimes = reg.value("sim.kernel.process_lifetime")
            assert lifetimes["count"] == 1
            assert lifetimes["sum"] == 1.0
            kinds = [e.kind for e in tr.events()]
            assert "proc.start" in kinds and "proc.end" in kinds
