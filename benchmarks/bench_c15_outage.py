"""C15 -- disruption-tolerant ground segment: the cost of losing the link.

Times the outage acceptance sweep (:func:`repro.scenarios.outage_sweep`,
every link-disruption pattern at seed 1) through the scenario runner --
contact scheduler, onboard solid-state recorder with priority eviction,
ground-driven playback, CFDP-style checkpointed resumable uploads -- and
prints two tables:

- resumable-upload cost per disruption pattern: bytes offered to the
  link over the file size, and how often each transfer resumed (the
  paper's §3.3 protocols all restart from byte zero; the >= 2x that
  restart-from-zero pays across a blackout is measured in
  ``tests/robustness/test_dtn_transfer.py``);
- store-and-forward telemetry playback: records produced out of
  contact vs delivered, shed discipline, playback throughput per
  contact second.

The per-mission accounting is ``result.metrics["dtn"]``; with
``REPRO_BENCH_JSON=1`` the tables are captured into
``BENCH_c15_outage.json``.
"""

from conftest import print_table
from repro.scenarios import outage_sweep, result_violations, run_scenario


def test_outage_resumable_uploads(benchmark):
    def run():
        return [run_scenario(spec) for spec in outage_sweep([1])]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        contacts = r.spec.contacts
        transfers = r.metrics["dtn"]["transfers"].values()
        worst = max((t["overhead_ratio"] for t in transfers), default=None)
        rows.append(
            [
                r.name,
                len(contacts.windows) or "-",
                len(contacts.outages) or "-",
                len(transfers) or "-",
                "-" if worst is None else f"{worst:.2f}x",
                sum(t["resumes"] for t in transfers) if transfers else "-",
                r.metrics["ncc"]["retransmits"],
                len(result_violations(r)),
            ]
        )
    print_table(
        "resumable upload cost across link disruptions",
        [
            "scenario",
            "windows",
            "outages",
            "uploads",
            "worst cost",
            "resumes",
            "tc-rtx",
            "viol",
        ],
        rows,
    )
    assert all(r.completed for r in results)
    assert [v for r in results for v in result_violations(r)] == []
    uploads = [
        t for r in results for t in r.metrics["dtn"]["transfers"].values()
    ]
    assert uploads and all(t["finished"] for t in uploads)
    assert all(t["overhead_ratio"] < 1.5 for t in uploads)
    assert any(t["resumes"] for t in uploads)


def test_outage_playback_throughput(benchmark):
    """Store-and-forward telemetry: zero loss below capacity, and the
    playback drains the recorder at a useful per-contact-second rate."""

    def run():
        return [
            run_scenario(spec)
            for spec in outage_sweep([1])
            if spec.contacts.tm_period > 0
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for r in results:
        dtn = r.metrics["dtn"]
        tm = dtn["telemetry"]
        produced = sum(tm["produced"].values())
        delivered = sum(tm["delivered"].values())
        contact_s = dtn["contact"]["contact_s"]
        rate = delivered / contact_s if contact_s else 0.0
        rows.append(
            [
                r.name,
                produced,
                delivered,
                tm["recorder"]["shed"],
                tm["recorder"]["shed_by_class"]["p0"],
                tm["gaps"],
                f"{contact_s:.0f}",
                f"{rate:.2f}",
                len(result_violations(r)),
            ]
        )
    print_table(
        "store-and-forward playback: production, delivery and shed discipline",
        [
            "scenario",
            "produced",
            "delivered",
            "shed",
            "shed-p0",
            "gaps",
            "contact-s",
            "rec/s",
            "viol",
        ],
        rows,
    )
    assert results
    for r in results:
        assert result_violations(r) == []
        tm = r.metrics["dtn"]["telemetry"]
        # every p0 record that was produced reached the ground
        assert tm["delivered"]["p0"] == tm["produced"]["p0"]
