"""C12 -- fault-tolerant reconfiguration: the TC/TM sweep's recovery table.

Times the control-plane acceptance sweep (:func:`repro.scenarios.tctm_sweep`,
every campaign-fault shape at seed 0) through the scenario runner -- the
full NCC -> gateway -> OBC reconfiguration path under a lossy link,
configuration upsets after every load, truncated uploads and lost TM
replies -- and prints the per-shape recovery table: campaign outcomes,
TC retransmissions, dedup hits, safe-mode latches and the simulated
time to resolution.

The per-mission accounting is ``result.metrics``; with
``REPRO_BENCH_JSON=1`` the table is captured into
``BENCH_c12_fault_recovery.json``.
"""

from conftest import print_table
from repro.scenarios import result_violations, run_scenario, tctm_sweep


def test_tctm_sweep_recovery(benchmark):
    def run():
        return [run_scenario(spec) for spec in tctm_sweep([0])]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        m = r.metrics
        outcomes = m["reconfigs"]
        rows.append(
            [
                r.name,
                r.spec.seed,
                sum(c["success"] for c in outcomes),
                sum(c["rolled_back"] for c in outcomes),
                len(outcomes),
                m["ncc"]["retransmits"],
                m["gateway"]["dedup_hits"],
                ",".join(m["safe_mode"]) or "-",
                f"{m['sim_time']:.0f}s",
                len(result_violations(r)),
            ]
        )
    print_table(
        "TC/TM sweep: one seed across every campaign-fault shape",
        [
            "scenario",
            "seed",
            "ok",
            "rolled back",
            "campaigns",
            "tc rtx",
            "dedup",
            "safe",
            "sim t",
            "viol",
        ],
        rows,
    )
    assert all(r.completed for r in results)
    assert [v for r in results for v in result_violations(r)] == []
    by_name = {r.name: r.metrics for r in results}
    assert by_name["lost-final-ack"]["gateway"]["dedup_hits"] >= 1
    assert by_name["seu-during-load"]["safe_mode"] == ["demod0"]


def test_dead_link_detection_time(benchmark):
    """A dead space link is detected at bounded simulated time."""
    from repro.core.registry import default_registry
    from repro.ncc.campaign import NetworkControlCenter
    from repro.net import Link, Node
    from repro.robustness import RetryExhausted
    from repro.sim import Simulator

    def run():
        sim = Simulator()
        ground = Node(sim, "ncc", 1)
        link = Link(sim)
        link.attach(ground)
        link.attach(Node(sim, "sat", 2))
        link.set_up(False)  # the TC never reaches the satellite
        ncc = NetworkControlCenter(ground, default_registry(), sat_address=2)
        box = {}

        def campaign():
            try:
                yield from ncc.send_telecommand("status", {})
            except RetryExhausted:
                box["t"] = sim.now

        sim.process(campaign())
        sim.run(until=24 * 3600.0)
        return box, ncc

    box, ncc = benchmark.pedantic(run, rounds=1, iterations=1)
    bound = ncc.tc.policy.total_delay_bound()
    print(
        f"dead link detected after {box['t']:.1f} s simulated "
        f"(policy bound {bound:.1f} s; the old code hung forever)"
    )
    assert box["t"] <= bound
