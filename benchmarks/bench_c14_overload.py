"""C14 -- demand-plane overload control: shed-before-collapse under surge.

Times the overload acceptance sweep (:func:`repro.scenarios.overload_sweep`,
every surge shape at seed 0, each with its clean twin) through the
scenario runner -- ingress admission, one bounded queue per class whose
heads expire at the class budget, the brownout ladder, the link-budget-coupled
capacity and the service circuit breaker, on the live 3-carrier
regenerative chain -- and prints the per-shape table: offered vs
admitted vs served load, p0 goodput against the clean twin, brownout
ladder actions and breaker trips.

The per-mission accounting is ``result.metrics["overload"]``; with
``REPRO_BENCH_JSON=1`` the table is captured into
``BENCH_c14_overload.json``.
"""

from conftest import print_table
from repro.scenarios import (
    nominal_twin,
    overload_sweep,
    result_violations,
    run_scenario,
)


def test_overload_shed_before_collapse(benchmark):
    def run():
        return [
            (run_scenario(spec), run_scenario(nominal_twin(spec)))
            for spec in overload_sweep([0])
        ]

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for result, twin in pairs:
        ov = result.metrics["overload"]
        base_p0 = twin.metrics["overload"]["served"]["p0"]
        p0_ratio = ov["served"]["p0"] / base_p0 if base_p0 else float("nan")
        rows.append(
            [
                result.name,
                result.spec.frames,
                sum(ov["arrivals"].values()),
                sum(ov["admitted"].values()),
                sum(ov["served"].values()),
                f"{p0_ratio:.2f}",
                ov["ladder"]["shed_events"],
                ov["ladder"]["restore_events"],
                ov["breaker"]["trips"] if "breaker" in ov else "-",
                len(result_violations(result, nominal=twin)),
            ]
        )
    print_table(
        "demand-plane overload: admission, shedding and p0 goodput per surge",
        [
            "scenario",
            "frames",
            "offered",
            "admitted",
            "served",
            "p0/twin",
            "sheds",
            "restores",
            "trips",
            "viol",
        ],
        rows,
    )
    assert all(r.completed and t.completed for r, t in pairs)
    assert [
        v
        for r, t in pairs
        for v in result_violations(r, nominal=t) + result_violations(t)
    ] == []
    # every surge shape actually pushed past capacity and shed load
    assert all(sum(r.metrics["overload"]["rejected"].values()) > 0 for r, _ in pairs)


def test_overload_nominal_overhead(benchmark):
    """The clean-demand control: admission at nominal load rejects
    (almost) nothing and the brownout ladder never engages."""

    def run():
        return run_scenario(nominal_twin(overload_sweep([0])[0]))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    ov = result.metrics["overload"]
    offered = sum(ov["arrivals"].values())
    rejected = sum(ov["rejected"].values())
    print(
        f"nominal: {sum(ov['served'].values())}/{offered} served, "
        f"{rejected} rejected, {len(ov['ladder_history'])} ladder actions"
    )
    assert result_violations(result) == []
    assert rejected <= 0.01 * offered
    assert not ov["ladder_history"]
