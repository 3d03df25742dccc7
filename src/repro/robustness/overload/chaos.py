"""Overload chaos campaign: surge the demand plane, assert shed-before-collapse.

The FDIR scenario sweep (:func:`repro.scenarios.fdir_sweep`) attacks the
*signal* plane; this campaign attacks the *demand* plane.  Each scenario
drives a frame-ticked model of the full overload-control stack --
:class:`~repro.robustness.overload.admission.AdmissionController` at the
ingress, per-class :class:`~repro.robustness.overload.queues.CoDelQueue`
buffering, per-class :class:`~repro.robustness.overload.deadline.Deadline`
budgets at service, a
:class:`~repro.robustness.overload.brownout.BrownoutLadder` fed by an
EWMA of offered load over capacity, and (scenario-dependent) the
link-budget-driven
:class:`~repro.robustness.fdir.degraded.DegradedModePolicy` and a
:class:`~repro.robustness.overload.brownout.CircuitBreaker` around the
servicing stage -- through flash crowds, sustained 10x surges, and
surges composed with rain fades or component faults.

After every run a battery of *shed-before-collapse* invariants is
checked mechanically (:meth:`OverloadOutcome.violations`): the run
completes (no hang), every counter balances (nothing silently lost),
queue depth never exceeds its bound, top-priority goodput holds a floor
relative to a nominal same-seed baseline, served latency stays inside
the deadline budgets, no class starves, the brownout ladder sheds and
restores monotonically without flapping, and a clean nominal run sheds
(almost) nothing.

Pressure is measured on *offered demand*, not queue depth: a shed-based
controller that watched its own (now short) queues would restore the
shed classes mid-surge and flap.  Demand pressure stays high until the
surge actually ends, which is what makes the monotone shed -> restore
invariant achievable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...core.linkbudget import shared_uplink_cn
from ...dsp.tdma import FramePlan
from ...ncc.traffic import ServiceMix
from ...obs.probes import probe as _obs_probe
from ...sim.rng import RngRegistry
from ..fdir.degraded import DegradedModePolicy
from .admission import AdmissionController
from .brownout import BrownoutLadder, CircuitBreaker
from .deadline import Deadline
from .queues import CoDelQueue

__all__ = [
    "OverloadScenario",
    "OverloadOutcome",
    "OverloadChaosCampaign",
    "default_overload_scenarios",
]

#: demand-plane frame tick (seconds); time in a run is the frame index
FRAME_S = 1.0

#: requests/frame one active carrier can serve
PER_CARRIER_CAPACITY = 10

#: carriers in the demand-plane world
NUM_CARRIERS = 3

#: nominal offered load (requests/frame) -- 0.4 utilisation of the
#: 3 x 10 capacity, so the post-surge pressure EWMA settles well below
#: the ladder's restore threshold (Poisson jitter included) and shed
#: classes reliably come back without dwell resets
NOMINAL_OFFERED = 12.0

#: per-class deadline budgets (frames): tighter for lower priority --
#: bulk traffic that waited is worthless, control traffic less so
DEADLINE_BUDGET = {"p0": 8.0, "p1": 6.0, "p2": 4.0}

#: mission-year service mix the admission shares follow (p0 40 %,
#: p1 35 %, p2 25 % via voice/video/text)
MIX = ServiceMix(year=5.0, voice=0.40, text=0.25, video=0.35, total_mbps=30.0)

BASE_CN_DB = 12.0


@dataclass(frozen=True)
class OverloadScenario:
    """One demand-plane attack: a surge profile plus optional fade/fault.

    ``surge(frame)`` returns the demand multiplier, ``fade_db(frame)``
    the uplink fade depth, ``fault(frame)`` whether the servicing stage
    is broken this frame (exercises the circuit breaker).
    """

    name: str
    description: str
    frames: int
    surge: Callable[[int], float]
    fade_db: Callable[[int], float] = lambda f: 0.0
    fault: Callable[[int], bool] = lambda f: False
    #: scenario-run p0 goodput must be >= floor x same-seed nominal run
    p0_goodput_floor: float = 0.9
    #: assert the degraded-mode policy shed >= 1 carrier and fully restored
    expect_fade_shed: bool = False
    #: assert the breaker tripped (1..3 times) and ended CLOSED
    expect_breaker: bool = False


@dataclass
class OverloadOutcome:
    """Everything one scenario run produced, plus the invariant checks."""

    scenario: OverloadScenario
    seed: int
    completed: bool = True
    error: Optional[str] = None
    #: per-class counters over the whole run
    arrivals: Dict[str, int] = field(default_factory=dict)
    admitted: Dict[str, int] = field(default_factory=dict)
    rejected: Dict[str, int] = field(default_factory=dict)
    served_ok: Dict[str, int] = field(default_factory=dict)
    expired: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    #: same-seed nominal-run served_ok, the goodput yardstick
    baseline_served_ok: Dict[str, int] = field(default_factory=dict)
    queue_stats: Dict[str, dict] = field(default_factory=dict)
    ladder_history: List[Tuple[float, str, str]] = field(default_factory=list)
    ladder_stats: dict = field(default_factory=dict)
    admission_stats: dict = field(default_factory=dict)
    breaker_stats: Optional[dict] = None
    policy_events: List[Tuple[str, int, float]] = field(default_factory=list)
    final_active_carriers: int = NUM_CARRIERS
    #: sojourn times (frames) of every successfully served request
    served_sojourns: List[float] = field(default_factory=list)
    nominal_run: bool = False

    # -- the shed-before-collapse invariants ------------------------------
    def violations(self) -> List[str]:
        v: List[str] = []
        s = self.scenario
        tag = f"[{s.name} seed={self.seed}]"
        if not self.completed:
            v.append(f"{tag} run did not complete: {self.error}")
            return v
        classes = sorted(self.arrivals)
        # 1. conservation: nothing is silently lost at any hop
        for c in classes:
            if self.admitted[c] + self.rejected[c] != self.arrivals[c]:
                v.append(f"{tag} {c}: admitted+rejected != arrivals")
            q = self.queue_stats[c]
            if q["offered"] != self.admitted[c]:
                v.append(f"{tag} {c}: queue offered != admitted")
            if q["accepted"] + q["dropped"] != q["offered"]:
                v.append(f"{tag} {c}: accepted+dropped != offered")
            if q["served"] + q["shed"] + q["depth"] != q["accepted"]:
                v.append(f"{tag} {c}: served+shed+depth != accepted")
            served = self.served_ok[c] + self.expired[c] + self.failed[c]
            if served != q["served"]:
                v.append(f"{tag} {c}: served_ok+expired+failed != served")
            # 2. bounded queues: depth never exceeded the bound
            if q["max_depth"] > q["capacity"]:
                v.append(f"{tag} {c}: max_depth {q['max_depth']} > capacity")
        if self.nominal_run:
            # 8. nominal control: clean traffic is (almost) never rejected
            #    and the ladder never engages
            offered = sum(self.arrivals.values())
            rej = sum(self.rejected.values())
            if offered and rej > 0.01 * offered:
                v.append(f"{tag} nominal run rejected {rej}/{offered}")
            if self.ladder_history:
                v.append(f"{tag} nominal run engaged the brownout ladder")
            return v
        # 3. top-priority goodput floor vs the same-seed nominal run
        base_p0 = self.baseline_served_ok.get("p0", 0)
        if base_p0 and self.served_ok.get("p0", 0) < s.p0_goodput_floor * base_p0:
            v.append(
                f"{tag} p0 goodput {self.served_ok.get('p0', 0)} < "
                f"{s.p0_goodput_floor} x baseline {base_p0}"
            )
        # 4. admitted latency bounded: p99 served sojourn inside the
        #    loosest deadline budget
        if self.served_sojourns:
            p99 = float(np.percentile(self.served_sojourns, 99))
            if p99 > max(DEADLINE_BUDGET.values()) + 1e-9:
                v.append(f"{tag} p99 served sojourn {p99:.2f} over budget")
        # 5. no starvation: every class got real service at some point
        for c in classes:
            if self.served_ok.get(c, 0) == 0:
                v.append(f"{tag} {c} starved (zero served)")
        # 6. monotone shed/restore, no flapping: each class sheds at most
        #    once and restores at most once, in that order
        per_class: Dict[str, List[str]] = {}
        for _t, action, c in self.ladder_history:
            per_class.setdefault(c, []).append(action)
        for c, actions in per_class.items():
            if actions not in (["shed"], ["shed", "restore"]):
                v.append(f"{tag} {c} ladder flapped: {actions}")
        if self.ladder_stats.get("level", 0) != 0:
            v.append(f"{tag} ladder still shed at end: {self.ladder_stats}")
        # 7. scenario-specific expectations
        if s.expect_fade_shed:
            sheds = [e for e in self.policy_events if e[0] == "shed"]
            if not sheds:
                v.append(f"{tag} fade never shed a carrier")
            if self.final_active_carriers != NUM_CARRIERS:
                v.append(
                    f"{tag} carriers not fully restored "
                    f"({self.final_active_carriers}/{NUM_CARRIERS})"
                )
        if s.expect_breaker:
            b = self.breaker_stats or {}
            if not 1 <= b.get("trips", 0) <= 3:
                v.append(f"{tag} breaker trips {b.get('trips')} not in 1..3")
            if b.get("state") != CircuitBreaker.CLOSED:
                v.append(f"{tag} breaker ended {b.get('state')}, not closed")
        return v


class _FrameClock:
    """Mutable frame-index clock shared by every overload component."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class OverloadChaosCampaign:
    """Run every surge scenario across seeds; collect outcomes + violations.

    Deterministic per ``(seed, scenario)`` via
    :class:`~repro.sim.rng.RngRegistry` streams, mechanical invariants,
    ``overload.chaos`` probe counters.
    """

    def __init__(
        self,
        seeds: Sequence[int] = (1, 2, 3),
        scenarios: Optional[Sequence[OverloadScenario]] = None,
    ) -> None:
        self.seeds = list(seeds)
        self.scenarios = list(
            scenarios if scenarios is not None else default_overload_scenarios()
        )
        self.outcomes: List[OverloadOutcome] = []
        self._probe = _obs_probe("overload.chaos")

    # -- one run -----------------------------------------------------------
    def run_one(
        self, scenario: OverloadScenario, seed: int, nominal: bool = False
    ) -> OverloadOutcome:
        """Execute one scenario at one seed (``nominal`` disables the attack)."""
        out = OverloadOutcome(
            scenario=scenario, seed=seed, nominal_run=nominal
        )
        stream = "nominal" if nominal else "surge"
        rng = RngRegistry(seed).stream(
            f"overload.chaos.{scenario.name}.{stream}"
        )
        clock = _FrameClock()
        capacity = float(NUM_CARRIERS * PER_CARRIER_CAPACITY)
        admission = AdmissionController.from_service_mix(
            MIX, capacity, clock
        )
        shares = admission.shares
        classes = sorted(shares, key=lambda c: c)  # p0, p1, p2
        queues = {
            c: CoDelQueue(clock, capacity=64, target=0.5 * FRAME_S,
                          interval=2.0 * FRAME_S, name=f"chaos.{c}")
            for c in classes
        }
        ladder = BrownoutLadder(
            clock, rungs=("p2", "p1"), dwell=5.0 * FRAME_S
        )
        policy = DegradedModePolicy(
            FramePlan(num_carriers=NUM_CARRIERS, slots_per_frame=4),
            down_cn_db=16.0,
            required_ber=1e-4,
            shed_margin_db=0.0,
            restore_margin_db=2.0,
            min_active=1,
        )
        breaker = (
            CircuitBreaker(clock, failure_threshold=3, cooldown=5.0 * FRAME_S)
            if scenario.expect_breaker
            else None
        )
        for c in classes:
            out.arrivals[c] = 0
            out.served_ok[c] = 0
            out.expired[c] = 0
            out.failed[c] = 0
        ewma = 0.0
        alpha = 0.5
        try:
            for f in range(scenario.frames):
                clock.t = float(f) * FRAME_S
                # -- link budget: fade may shed/restore carriers, which
                #    moves the admission capacity estimate live
                fade = 0.0 if nominal else float(scenario.fade_db(f))
                active = [
                    k for k in policy.active_carriers
                    if k not in policy.terminal
                ]
                cn = shared_uplink_cn(
                    BASE_CN_DB, fade, NUM_CARRIERS, max(1, len(active))
                )
                policy.update(cn)
                n_active = len(policy.active_carriers)
                cap_now = float(n_active * PER_CARRIER_CAPACITY)
                if cap_now != admission.capacity:
                    admission.set_capacity(cap_now)
                # -- arrivals through admission into the class queues
                mult = 1.0 if nominal else float(scenario.surge(f))
                offered_now = 0
                for c in classes:
                    lam = NOMINAL_OFFERED * shares[c] * mult
                    n = int(rng.poisson(lam))
                    out.arrivals[c] += n
                    offered_now += n
                    for _ in range(n):
                        if admission.admit(c):
                            queues[c].offer(
                                Deadline.after(clock.t, DEADLINE_BUDGET[c])
                            )
                # -- brownout ladder on the offered-demand pressure EWMA
                pressure_now = offered_now / max(cap_now, 1.0)
                ewma = alpha * pressure_now + (1.0 - alpha) * ewma
                for action, c in ladder.update(ewma):
                    if action == "shed":
                        admission.shed(c)
                    else:
                        admission.restore(c)
                # -- strict-priority service inside the frame's capacity,
                #    behind the breaker when the scenario has one
                budget = int(cap_now)
                fault = (not nominal) and scenario.fault(f)
                tripped_out = False
                for c in classes:
                    if tripped_out:
                        break
                    q = queues[c]
                    while budget > 0 and len(q) > 0:
                        # Deadline shedding is *local* work: an expired
                        # head never reaches the protected stage, so it
                        # must not consume a breaker (half-open) probe.
                        hs = q.head_sojourn()
                        head_expired = (
                            hs is not None and hs >= DEADLINE_BUDGET[c]
                        )
                        if not head_expired and breaker is not None:
                            # queue checked non-empty *before* allow()
                            # so probe budget is never spent on idle
                            if not breaker.allow():
                                tripped_out = True
                                break
                        got = q.poll_with_sojourn()
                        if got is None:  # CoDel shed the rest
                            break
                        deadline, sojourn = got
                        if deadline.expired(clock.t):
                            out.expired[c] += 1
                            continue
                        budget -= 1
                        if fault:
                            out.failed[c] += 1
                            if breaker is not None and not head_expired:
                                breaker.record_failure()
                        else:
                            out.served_ok[c] += 1
                            out.served_sojourns.append(sojourn)
                            if breaker is not None and not head_expired:
                                breaker.record_success()
        except Exception as exc:  # pragma: no cover -- invariant 1
            out.completed = False
            out.error = f"{type(exc).__name__}: {exc}"
        out.admitted = dict(admission.admitted)
        out.rejected = dict(admission.rejected)
        out.queue_stats = {c: queues[c].stats() for c in classes}
        out.ladder_history = list(ladder.history)
        out.ladder_stats = ladder.stats()
        out.admission_stats = admission.stats()
        out.breaker_stats = breaker.stats() if breaker is not None else None
        out.policy_events = list(policy.events)
        out.final_active_carriers = len(policy.active_carriers)
        return out

    # -- the campaign ------------------------------------------------------
    def run(self) -> List[OverloadOutcome]:
        """All scenarios x all seeds, each with a same-seed nominal baseline."""
        self.outcomes = []
        p = self._probe
        for scenario in self.scenarios:
            for seed in self.seeds:
                baseline = self.run_one(scenario, seed, nominal=True)
                outcome = self.run_one(scenario, seed, nominal=False)
                outcome.baseline_served_ok = dict(baseline.served_ok)
                self.outcomes.append(baseline)
                self.outcomes.append(outcome)
                if p is not None:
                    p.count("runs", 2)
                    n_viol = len(baseline.violations()) + len(
                        outcome.violations()
                    )
                    if n_viol:
                        p.count("violations", n_viol)
                        p.event(
                            "overload.chaos_violation",
                            scenario=scenario.name,
                            seed=seed,
                            violations=n_viol,
                        )
        return self.outcomes

    def all_violations(self) -> List[str]:
        """Every invariant violation across every outcome (empty = pass)."""
        out: List[str] = []
        for o in self.outcomes:
            out.extend(o.violations())
        return out


def default_overload_scenarios() -> List[OverloadScenario]:
    """The four canonical demand-plane attacks."""

    def flash_surge(f: int) -> float:
        return 5.0 if 20 <= f < 30 else 1.0

    def sustained_surge(f: int) -> float:
        return 10.0 if 10 <= f < 70 else 1.0

    def rain_surge(f: int) -> float:
        return 5.0 if 15 <= f < 35 else 1.0

    def rain_fade(f: int) -> float:
        return 6.0 if 25 <= f < 45 else 0.0

    def recovery_surge(f: int) -> float:
        return 5.0 if 20 <= f < 40 else 1.0

    def recovery_fault(f: int) -> bool:
        return 20 <= f < 32

    return [
        OverloadScenario(
            name="flash-crowd",
            description="10-frame 5x demand spike; admission + ladder shed "
            "low classes, p0 goodput holds >= 90 % of nominal",
            frames=60,
            surge=flash_surge,
            p0_goodput_floor=0.9,
        ),
        OverloadScenario(
            name="sustained-10x",
            description="60-frame 10x overload; demand-based pressure keeps "
            "the shed classes shed (no flapping) until the surge truly ends",
            frames=90,
            surge=sustained_surge,
            p0_goodput_floor=0.9,
        ),
        OverloadScenario(
            name="surge-rain-fade",
            description="5x surge overlapping a 6 dB rain fade: the degraded-"
            "mode policy sheds carriers, admission capacity follows the link "
            "budget down and back up",
            frames=70,
            surge=rain_surge,
            fade_db=rain_fade,
            p0_goodput_floor=0.9,
            expect_fade_shed=True,
        ),
        OverloadScenario(
            name="surge-during-fdir-recovery",
            description="5x surge while the servicing stage is faulted: the "
            "circuit breaker trips, fails fast, probes half-open and closes "
            "after recovery",
            frames=60,
            surge=recovery_surge,
            fault=recovery_fault,
            p0_goodput_floor=0.7,
            expect_breaker=True,
        ),
    ]
