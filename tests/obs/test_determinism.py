"""Golden-trace determinism: the trace hash as a regression oracle.

The end-to-end reconfiguration scenario (NCC uploads a bitstream over
the lossy GEO link, commands the swap, verifies the CRC telemetry) is
run under an observability session.  Identical seeds must produce
byte-identical canonical trace serializations -- any nondeterminism in
the kernel, the network stack or the instrumentation itself breaks this
test.  Different seeds must diverge (the trace actually depends on the
injected randomness, i.e. it is not vacuously constant).
"""

import pytest

from repro import obs
from repro.core import PayloadConfig, RegenerativePayload
from repro.ncc import NetworkControlCenter, SatelliteGateway
from repro.net import Link, Node
from repro.sim import RngRegistry, Simulator

GEOM = (8, 8, 32)
SMALL = dict(fpga_rows=GEOM[0], fpga_cols=GEOM[1], fpga_bits_per_clb=GEOM[2])


def run_reconfiguration_campaign(seed: int, ber: float = 2e-5):
    """One full upload-and-reconfigure campaign over a lossy GEO link.

    Returns ``(trace_hash, canonical_bytes, registry_snapshot, result)``.
    """
    with obs.session(tracer=obs.Tracer(capacity=65536)) as (reg, tr):
        sim = Simulator()
        ground = Node(sim, "ncc", 1)
        space = Node(sim, "sat", 2)
        rng = RngRegistry(seed).stream("link")
        link = Link(sim, delay=0.25, rate_bps=1e6, ber=ber, rng=rng)
        link.attach(ground)
        link.attach(space)
        payload = RegenerativePayload(PayloadConfig(num_carriers=1, **SMALL))
        payload.boot(modem="modem.cdma")
        SatelliteGateway(space, payload)
        ncc = NetworkControlCenter(ground, payload.registry, 2, GEOM)
        done = {}

        def campaign(sim):
            done["res"] = yield from ncc.reconfigure_equipment(
                "demod0", "modem.tdma", protocol="ftp"
            )

        sim.process(campaign(sim))
        sim.run(until=3600)
        return tr.hash(), tr.canonical(), reg.export(), done.get("res")


class TestGoldenTrace:
    @pytest.mark.slow
    def test_same_seed_is_byte_identical(self):
        h1, canon1, snap1, res1 = run_reconfiguration_campaign(seed=2003)
        h2, canon2, snap2, res2 = run_reconfiguration_campaign(seed=2003)
        assert res1 is not None and res1.success
        assert res2 is not None and res2.success
        assert canon1 == canon2  # byte-identical canonical serialization
        assert h1 == h2
        # the metrics snapshot is deterministic too
        assert snap1 == snap2

    @pytest.mark.slow
    def test_different_seeds_diverge(self):
        # A hot link (high BER) guarantees seed-dependent corruption events
        # land in the trace; at the nominal BER the tiny test bitstream can
        # cross unscathed for *any* seed, making the hashes vacuously equal.
        h1, _, _, _ = run_reconfiguration_campaign(seed=2003, ber=5e-4)
        h2, _, _, _ = run_reconfiguration_campaign(seed=2004, ber=5e-4)
        assert h1 != h2

    def test_trace_is_nonempty_and_timed(self):
        _, canon, snap, res = run_reconfiguration_campaign(seed=5)
        assert res is not None and res.success
        lines = canon.decode().strip().splitlines()
        assert lines[0].startswith("# trace")
        assert len(lines) > 10  # proc.start/end, reconfig.*, fpga.* ...
        # kernel metrics observed the same run (the 8x8x32 bitstream is
        # only 256 bytes, so the whole campaign is a few dozen events)
        assert snap["sim.kernel.events_fired"]["series"][""] > 40


class TestSmallDeterminism:
    """Cheap kernel-only determinism check (not marked slow)."""

    def _run(self, seed):
        with obs.session() as (_, tr):
            sim = Simulator()
            rng = RngRegistry(seed).stream("sched")

            def worker(sim, i):
                yield sim.timeout(float(rng.random()))
                yield sim.timeout(float(rng.random()))

            for i in range(10):
                sim.process(worker(sim, i), name=f"w{i}")
            sim.run()
            return tr.hash()

    def test_repeatable(self):
        assert self._run(1) == self._run(1)

    def test_seed_sensitive(self):
        assert self._run(1) != self._run(2)
