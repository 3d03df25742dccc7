"""The canonical scenario corpus and the randomized soak grid.

:func:`canonical_scenarios` returns the frozen mission set whose trace
hashes and summary metrics live under ``tests/scenarios/golden/`` --
one scenario per traffic-plane fault class, plus the §3
reconfiguration, overload and DTN missions.  Faults bite at frame 8
(6-frame transients, 8 dB fade ramps) so every mission has a clean
lead-in and a recovery tail.

:func:`fdir_sweep` re-seeds the eight traffic-plane FDIR missions and
attaches the FDIR actions each must (and must never) take -- the FDIR
acceptance sweep.  :func:`tctm_sweep` (campaign faults on the TC/TM
reconfiguration path), :func:`overload_sweep` (demand surges, each
judged against its :func:`nominal_twin`) and :func:`outage_sweep` (lost
contacts) are the control-plane, demand-plane and DTN acceptance
sweeps; none of their fault missions is in the golden corpus.

:func:`soak_grid` derives a deterministic pseudo-random grid of specs
from a base seed for the seeded soak sweep -- same seed, same grid,
forever.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List

from ..sim import RngRegistry, derive_seed
from .spec import (
    ContactSchedule,
    FadeSegment,
    FaultEvent,
    GroundLink,
    LinkBudget,
    ReconfigAction,
    ScenarioSpec,
    SurgeProfile,
    TrafficMix,
)

__all__ = [
    "canonical_scenarios",
    "catalog_by_name",
    "fdir_sweep",
    "nominal_twin",
    "outage_sweep",
    "overload_sweep",
    "soak_grid",
    "tctm_sweep",
]


def canonical_scenarios() -> List[ScenarioSpec]:
    """The golden-corpus missions, in a fixed order."""
    return [
        ScenarioSpec(
            name="nominal",
            description="fault-free control mission: full occupancy, "
            "every block delivered, no FDIR actions",
            frames=20,
        ),
        ScenarioSpec(
            name="quiet-occupancy",
            description="light traffic: 60% slot occupancy with skewed "
            "per-carrier weights, keep-alive bursts on idle slots",
            frames=20,
            traffic=TrafficMix(occupancy=0.6, weights=(1.0, 0.8, 0.5)),
        ),
        ScenarioSpec(
            name="lock-loss",
            description="carrier 1 blanked for 6 frames: reacquire "
            "ladder clears the transient",
            frames=28,
            faults=(FaultEvent(frame=8, kind="blank", carrier=1, duration=6),),
        ),
        ScenarioSpec(
            name="interference",
            description="15 dB uplink interference on carrier 2 for 6 "
            "frames",
            frames=28,
            faults=(
                FaultEvent(
                    frame=8,
                    kind="interference",
                    carrier=2,
                    magnitude=15.0,
                    duration=6,
                ),
            ),
        ),
        ScenarioSpec(
            name="cfo-step",
            description="permanent oscillator fault on carrier 0: the "
            "fallback ladder lands on the CFO-tolerant modem",
            frames=28,
            faults=(
                FaultEvent(
                    frame=8, kind="cfo", carrier=0, magnitude=0.01, duration=20
                ),
            ),
        ),
        ScenarioSpec(
            name="decoder-seu",
            description="SEU burst in the shared decoder FPGA at frame "
            "8: reload from the on-board library",
            frames=24,
            faults=(
                FaultEvent(frame=8, kind="seu.decoder", magnitude=200),
            ),
        ),
        ScenarioSpec(
            name="demod-latchup",
            description="latch-up kills carrier 1's active demod: "
            "failover to the cold spare",
            frames=24,
            faults=(FaultEvent(frame=8, kind="latchup.demod", carrier=1),),
        ),
        ScenarioSpec(
            name="double-latchup",
            description="both demod units on carrier 0 latch up: "
            "isolate, mission continues two-wide",
            frames=36,
            faults=(
                FaultEvent(frame=8, kind="latchup.demod", carrier=0),
                FaultEvent(frame=16, kind="latchup.demod", carrier=0),
            ),
            expected_final_active=2,
        ),
        ScenarioSpec(
            name="rain-fade",
            description="8 dB triangular rain fade over 24 frames: "
            "shed by priority, restore with hysteresis",
            frames=36,
            fades=(FadeSegment(start=8, end=32, peak_db=8.0, shape="ramp"),),
        ),
        ScenarioSpec(
            name="decoder-swap",
            description="mid-mission §3 campaign swaps the decoder "
            "personality to the turbo codec over the TC link",
            frames=24,
            reconfigs=(
                ReconfigAction(
                    frame=2, equipment="decod0", function="decod.turbo"
                ),
            ),
        ),
        ScenarioSpec(
            name="modem-swap",
            description="mid-mission §3 campaign swaps carrier 1 to "
            "the CFO-tolerant modem personality",
            frames=24,
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="demod1",
                    function="modem.tdma.robust",
                    protocol="ftp",
                ),
            ),
        ),
        ScenarioSpec(
            name="flash-crowd",
            description="5x demand-plane flash crowd for 10 frames: "
            "admission and the brownout ladder shed the low classes, "
            "p0 keeps being served, everything restores after the spike",
            frames=36,
            surge=SurgeProfile(start=8, end=18, multiplier=5.0),
        ),
        ScenarioSpec(
            name="surge-rain-fade",
            description="demand surge overlapping a rain fade: the "
            "degraded-mode policy sheds carriers and the admission "
            "capacity follows the link budget down and back up",
            frames=44,
            fades=(FadeSegment(start=8, end=28, peak_db=8.0, shape="ramp"),),
            surge=SurgeProfile(start=6, end=20, multiplier=4.0),
        ),
        ScenarioSpec(
            name="contact-plan-pass",
            description="decoder swap commanded before the ground "
            "station rises: the DTN layer holds the campaign until the "
            "scheduled contact window opens, then completes it in-pass",
            frames=24,
            contacts=ContactSchedule(windows=((6.0, 1800.0),)),
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="decod0",
                    function="decod.turbo",
                    protocol="tftp",
                ),
            ),
        ),
        ScenarioSpec(
            name="blackout-resume-upload",
            description="a 30 s unscheduled blackout cuts the decoder "
            "swap upload mid-transfer: the checkpointed transfer "
            "resumes at the outage end without re-sending completed "
            "segments",
            frames=24,
            # 64-byte segments stretch the (small) bitstream transfer
            # across the outage onset so the blackout actually bites
            contacts=ContactSchedule(outages=((5.0, 30.0),), segment_size=64),
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="decod0",
                    function="decod.turbo",
                    protocol="tftp",
                ),
            ),
        ),
        ScenarioSpec(
            name="lossy-ground",
            description="decoder swap over a ground link with bit-error "
            "rate 1e-4: the swap lands with every telecommand executed "
            "exactly once",
            frames=28,
            ground=GroundLink(delay=0.25, rate_bps=1e6, ber=1e-4),
            reconfigs=(
                ReconfigAction(
                    frame=2,
                    equipment="decod0",
                    function="decod.turbo",
                    protocol="tftp",
                ),
            ),
        ),
    ]


def catalog_by_name() -> Dict[str, ScenarioSpec]:
    return {s.name: s for s in canonical_scenarios()}


#: recovery-ladder rungs and policy sheds a transient must never reach
_DRASTIC = ("isolate", "terminal", "shed")

#: FDIR mission -> (expected action kinds, forbidden action kinds)
FDIR_EXPECTATIONS = {
    "nominal": (
        (),
        ("reacquire", "reload", "fallback", "isolate", "terminal", "shed"),
    ),
    "lock-loss": (("reacquire",), _DRASTIC),
    "interference": (("reacquire",), _DRASTIC),
    "cfo-step": (("fallback",), _DRASTIC),
    "decoder-seu": (("decoder_reload",), _DRASTIC),
    "demod-latchup": (("isolate",), ("terminal", "shed")),
    "double-latchup": (("isolate", "terminal"), ()),
    "rain-fade": (("shed", "restore"), ("isolate", "terminal")),
}


def _reseed(specs: Iterable[ScenarioSpec], seeds: Iterable[int]) -> List[ScenarioSpec]:
    """Every spec once per seed, mission-major (the sweeps' one re-seeder)."""
    seeds = list(seeds)
    return [dataclasses.replace(s, seed=seed) for s in specs for seed in seeds]


def fdir_sweep(seeds: Iterable[int]) -> List[ScenarioSpec]:
    """The traffic-plane FDIR acceptance sweep: mission x seed.

    Each of the eight canonical FDIR missions (a fault-free control and
    seven fault classes) is re-seeded once per seed and carries the
    FDIR actions it must take and must never take, which
    :func:`~repro.scenarios.runner.result_violations` checks alongside
    the cross-cutting invariants.
    """
    catalog = catalog_by_name()
    return _reseed(
        (
            dataclasses.replace(
                catalog[name], expect_actions=expect, forbid_actions=forbid
            )
            for name, (expect, forbid) in FDIR_EXPECTATIONS.items()
        ),
        seeds,
    )


def tctm_sweep(seeds: Iterable[int]) -> List[ScenarioSpec]:
    """The TC/TM control-plane acceptance sweep: campaign fault x seed.

    The §3 claim under test: a payload reconfigured over a lossy link
    never bricks -- it recovers by retransmission, rollback or its
    golden image.  Two golden reconfiguration missions re-seeded (a
    clean control and a lossy link) plus three campaign-fault shapes.
    """
    catalog = catalog_by_name()
    to_robust = tuple(
        ReconfigAction(frame=f, equipment="demod0", function="modem.tdma.robust")
        for f in (2, 10, 18)
    )
    return _reseed(
        [
            catalog["decoder-swap"],
            catalog["lossy-ground"],
            ScenarioSpec(
                name="seu-during-load",
                description="an upset burst after every configuration "
                "load: two rollbacks, then safe mode on the golden image",
                frames=30,
                faults=(FaultEvent(frame=1, kind="seu.load", duration=29),),
                reconfigs=to_robust,
            ),
            ScenarioSpec(
                name="truncated-upload",
                description="uploads land cut in half: the stored image "
                "fails its CRC, two rollbacks, then safe mode",
                frames=30,
                faults=(FaultEvent(frame=1, kind="upload.truncate", magnitude=3),),
                reconfigs=to_robust,
            ),
            ScenarioSpec(
                name="lost-final-ack",
                description="two replies to the store telecommand are "
                "lost after it executed: retransmission, dedup, one "
                "execution",
                frames=24,
                faults=(FaultEvent(frame=2, kind="tm.drop", magnitude=2),),
                reconfigs=(
                    ReconfigAction(
                        frame=2, equipment="decod0", function="decod.turbo"
                    ),
                ),
            ),
        ],
        seeds,
    )


def overload_sweep(seeds: Iterable[int]) -> List[ScenarioSpec]:
    """The demand-plane acceptance sweep: surge shape x seed.

    Judge each run with its :func:`nominal_twin` for the p0 goodput
    floor.
    """
    return _reseed(
        [
            ScenarioSpec(
                name="flash-crowd",
                description="10-frame 5x demand spike",
                frames=60,
                surge=SurgeProfile(start=20, end=30, multiplier=5.0),
            ),
            ScenarioSpec(
                name="sustained-10x",
                description="60-frame 10x overload: shed classes stay shed",
                frames=90,
                surge=SurgeProfile(start=10, end=70, multiplier=10.0),
            ),
            ScenarioSpec(
                name="surge-rain-fade",
                description="5x surge overlapping a 6 dB fade that sheds carriers",
                frames=70,
                fades=(FadeSegment(start=25, end=45, peak_db=6.0, shape="step"),),
                surge=SurgeProfile(start=15, end=35, multiplier=5.0),
                expect_actions=("shed", "restore"),
            ),
            ScenarioSpec(
                name="surge-during-fdir-recovery",
                description="5x surge while an SEU takes the decoder down: "
                "the service breaker trips, fails fast and closes",
                frames=60,
                faults=(FaultEvent(frame=20, kind="seu.decoder"),),
                surge=SurgeProfile(start=20, end=40, multiplier=5.0),
            ),
        ],
        seeds,
    )


def nominal_twin(spec: ScenarioSpec) -> ScenarioSpec:
    """The same mission with clean demand and no fades or faults."""
    return dataclasses.replace(
        spec,
        surge=dataclasses.replace(spec.surge, multiplier=1.0),
        fades=(),
        faults=(),
        expect_actions=(),
        forbid_actions=(),
    )


def outage_sweep(seeds: Iterable[int]) -> List[ScenarioSpec]:
    """The DTN acceptance sweep: link-disruption pattern x seed."""
    return _reseed(
        [
            ScenarioSpec(
                name="scheduled-pass",
                description="TM stored across three passes, all delivered",
                frames=40,
                frame_duration=50.0,
                contacts=ContactSchedule(
                    windows=((0.0, 200.0), (800.0, 1000.0), (1600.0, 1900.0)),
                    tm_period=5.0,
                    tm_stop=1650.0,
                ),
            ),
            ScenarioSpec(
                name="recorder-overflow",
                description="a 14-minute gap overfills a 12 KiB recorder",
                frames=24,
                frame_duration=50.0,
                contacts=ContactSchedule(
                    windows=((0.0, 60.0), (900.0, 1160.0)),
                    tm_period=1.0,
                    tm_stop=660.0,
                    recorder_capacity=12288,
                ),
            ),
            ScenarioSpec(
                name="flapping-link",
                description="8 s outages every 30 s cut three campaigns",
                frames=100,
                frame_duration=1.0,
                contacts=ContactSchedule(
                    outages=((20.0, 8.0), (50.0, 8.0), (80.0, 8.0)),
                    segment_size=64,
                ),
                reconfigs=(
                    ReconfigAction(19, "decod0", "decod.turbo"),
                    ReconfigAction(49, "demod1", "modem.tdma.robust"),
                    ReconfigAction(79, "decod0", "decod.conv"),
                ),
            ),
            catalog_by_name()["blackout-resume-upload"],
        ],
        seeds,
    )


#: fault classes the soak sweep samples from (``None`` = clean run)
_SOAK_FAULTS = (
    None,
    "blank",
    "interference",
    "fade",
    "seu.decoder",
    "latchup.demod",
)


def soak_grid(base_seed: int, points: int = 6) -> List[ScenarioSpec]:
    """A deterministic pseudo-random grid of ``points`` scenario specs.

    Dimensions: carrier count (2-4), slot occupancy, fault class and
    fault placement.  The grid is a pure function of ``base_seed`` --
    the soak tests run every point twice and require identical trace
    hashes, so the grid itself must be reproducible too.
    """
    rng = RngRegistry(derive_seed(base_seed, "scenarios", "soak")).stream(
        "grid"
    )
    specs: List[ScenarioSpec] = []
    for i in range(points):
        n_car = int(rng.integers(2, 5))
        occupancy = float(rng.choice([0.5, 0.8, 1.0]))
        fault = _SOAK_FAULTS[int(rng.integers(0, len(_SOAK_FAULTS)))]
        frames = 24
        fades = ()
        faults = ()
        if fault == "fade":
            frames = 36
            fades = (FadeSegment(start=8, end=32, peak_db=8.0, shape="ramp"),)
        elif fault == "blank":
            frames = 28
            faults = (
                FaultEvent(
                    frame=8,
                    kind="blank",
                    carrier=int(rng.integers(0, n_car)),
                    duration=6,
                ),
            )
        elif fault == "interference":
            frames = 28
            faults = (
                FaultEvent(
                    frame=8,
                    kind="interference",
                    carrier=int(rng.integers(0, n_car)),
                    magnitude=15.0,
                    duration=6,
                ),
            )
        elif fault == "seu.decoder":
            faults = (FaultEvent(frame=8, kind="seu.decoder", magnitude=200),)
        elif fault == "latchup.demod":
            faults = (
                FaultEvent(
                    frame=8,
                    kind="latchup.demod",
                    carrier=int(rng.integers(0, n_car)),
                ),
            )
        specs.append(
            ScenarioSpec(
                name=f"soak-{base_seed}-{i}",
                description=f"soak point {i}: {n_car} carriers, "
                f"occupancy {occupancy}, fault {fault or 'none'}",
                frames=frames,
                num_carriers=n_car,
                seed=derive_seed(base_seed, "soak", str(i)),
                traffic=TrafficMix(occupancy=occupancy),
                fades=fades,
                faults=faults,
                link=LinkBudget(),
            )
        )
    return specs
