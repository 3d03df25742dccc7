"""C13 -- traffic-plane FDIR: detection latency + recovery time per fault class.

Times the FDIR scenario sweep (:func:`repro.scenarios.fdir_sweep`, every
mission at seed 0) over the live 3-carrier regenerative chain and prints
the per-fault-class FDIR table: frames from fault onset to the first
standing alarm (detection latency), frames to clean delivery at the
expected width (recovery time), the FDIR actions taken, and the
delivery rate.

Run with ``REPRO_OBS=1`` and the stack's ``fdir_*`` counters --
``fdir.health.trips``, ``fdir.arbiter.actions_*``,
``fdir.degraded.sheds`` -- land in the exported metrics snapshot
(``BENCH_METRICS.json``) via the session fixture in ``conftest.py``,
the machine-checkable record that every injected fault was detected
and recovered autonomously.
"""

from conftest import print_table
from repro.scenarios import (
    catalog_by_name,
    fdir_sweep,
    result_violations,
    run_scenario,
)


def _recovery(result):
    """Frames from onset to the first frame of the clean tail."""
    onset = result.spec.fault_onset
    ok = result.frame_ok_history
    bad = [f for f, good in enumerate(ok) if not good]
    if onset is None or not bad or bad[-1] + 1 >= len(ok):
        return None
    return bad[-1] + 1 - onset


def test_fdir_detection_and_recovery(benchmark):
    def run():
        return [run_scenario(spec) for spec in fdir_sweep([0])]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        m = r.metrics
        detect = r.detection_latency
        recover = _recovery(r)
        kinds = sorted(set(m["actions"]) | set(m["policy_events"]))
        rows.append(
            [
                r.name,
                r.spec.frames,
                "-" if detect is None else detect,
                "-" if recover is None else recover,
                ",".join(kinds) or "-",
                f"{m['delivered'] / m['attempted']:.2f}",
                m["final_active"],
                len(result_violations(r)),
            ]
        )
    print_table(
        "traffic-plane FDIR: per-fault-class detection latency and recovery",
        [
            "scenario",
            "frames",
            "detect (fr)",
            "recover (fr)",
            "actions",
            "delivery",
            "active",
            "viol",
        ],
        rows,
    )
    # every fault class: detected, recovered, zero invariant violations
    assert all(r.completed for r in results)
    assert [v for r in results for v in result_violations(r)] == []
    faulted = [r for r in results if r.spec.fault_onset is not None]
    assert faulted and all(
        r.detection_latency is not None for r in faulted
    ), "every injected fault must be detected"
    # detection is prompt: step faults are caught within 6 frames of
    # onset; the fade ramp grows from zero dB at onset, so its "latency"
    # is dominated by how long the fade takes to matter, not by the
    # monitors -- allow the ramp time
    for r in faulted:
        bound = 12 if r.spec.fades else 6
        assert r.detection_latency <= bound, (r.name, r.detection_latency)


def test_fdir_steady_state_overhead(benchmark):
    """The fault-free control: monitoring the live chain is cheap and
    delivers everything."""
    spec = catalog_by_name()["nominal"]
    result = benchmark.pedantic(
        lambda: run_scenario(spec), rounds=1, iterations=1
    )
    m = result.metrics
    print(
        f"nominal: {m['delivered']}/{m['attempted']} blocks delivered, "
        f"{sum(m['actions'].values())} FDIR actions, "
        f"{sum(m['alarm_trips'].values())} alarms"
    )
    assert m["delivered"] == m["attempted"]
    assert not m["actions"]
