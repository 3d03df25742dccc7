"""Compile a :class:`~repro.scenarios.spec.ScenarioSpec` and run it.

The runner assembles the *whole* stack for one mission timeline:

- the FDIR traffic world (payload + DSP + coding + health monitors +
  recovery arbiter + degraded-mode policy + cold spares + watchdog),
  built by :func:`repro.scenarios.world.build_traffic_world` with the
  spec's carrier count and link budget;
- a simulated TC/TM ground segment -- NCC and satellite gateway nodes
  joined by a :class:`repro.net.simnet.Link` with the spec's delay,
  rate and bit-error rate -- on which the reconfiguration plan runs as
  real §3 campaigns (upload + store + reconfigure, retried and
  deduplicated by the robustness layer);
- the discrete-event kernel pacing MF-TDMA frames, each frame's
  terminals sending through :func:`ground_uplink` (the one ground
  segment, which the uplink differential oracles drive too), with
  campaign processes running *concurrently* in simulated time;
- campaign faults on that control plane: configuration upsets after
  every load, uploads landing truncated, telecommand replies lost;
- with a surge profile, the demand plane (admission, one bounded
  queue per class whose heads expire at the class budget, brownout
  ladder, and a circuit breaker around service that trips while the
  shared decoder is down);
- with a contact schedule, the DTN ground segment (contact scheduler,
  resumable uploads) and, when it sets ``tm_period``, the telemetry
  store-and-forward plane (solid-state recorder, TM downlink and
  ground-driven playback);
- a :mod:`repro.obs` session capturing every instrumented subsystem
  into one deterministic trace.

The output is a :class:`ScenarioResult` whose ``trace_hash`` is a pure
function of the spec: two runs of the same spec must hash identically,
and the golden corpus freezes those hashes as the conformance oracle.
:func:`result_violations` applies the cross-cutting invariants (no
silent corruption, no flapping, monotonic degradation, recovery at the
expected width, expected and forbidden FDIR actions, exactly-once TC
execution, never bricked, golden loads, shed-before-collapse, bounded
buffers, store-and-forward conservation) to any result; the FDIR,
TC/TM, overload and outage acceptance sweeps
(:mod:`repro.scenarios.catalog`) are run through it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..core.linkbudget import shared_uplink_cn
from ..core.payload import transmit_carriers
from ..dsp.channel import awgn
from ..dsp.demux import multiplex_carriers
from ..dsp.modem import ebn0_to_sigma
from ..ncc.campaign import (
    BoundedUploadStore,
    NetworkControlCenter,
    SatelliteGateway,
)
from ..net.simnet import Link, Node, arm_frame_drop
from ..net.tm import TelemetryDownlink, TelemetryMonitor
from ..obs.probes import probe as _obs_probe
from ..obs.trace import Tracer
from ..ncc.traffic import TrafficModel
from ..robustness.dtn import (
    PRIORITY_CLASSES,
    ContactPlan,
    ContactWindow,
    LinkScheduler,
    OutageEvent,
    ResumableReceiver,
    ResumableUploader,
    SolidStateRecorder,
)
from ..robustness.overload.admission import AdmissionController
from ..robustness.overload.brownout import BrownoutLadder, CircuitBreaker
from ..robustness.overload.queues import BoundedQueue
from ..robustness.policy import RetryExhausted
from ..robustness.transactions import TC_PORT
from ..sim import RngRegistry, Simulator, derive_seed
from .spec import (
    CAMPAIGN_FAULT_KINDS,
    CHANNEL_FAULT_KINDS,
    FaultEvent,
    ReconfigAction,
    ScenarioSpec,
)
from .world import TrafficWorld, build_traffic_world

__all__ = [
    "MAX_ALARM_TRIPS",
    "MAX_POLICY_TRANSITIONS",
    "MAX_UPLOAD_OVERHEAD",
    "P0_GOODPUT_FLOOR",
    "ScenarioResult",
    "ScenarioRunner",
    "ground_uplink",
    "result_violations",
    "run_scenario",
]

#: trace ring size for scenario runs (large enough that canonical
#: missions retain every event; evictions would still be deterministic)
TRACE_CAPACITY = 32768

#: flapping bounds: alarm trips / shed-restore transitions per carrier
MAX_ALARM_TRIPS = 3
MAX_POLICY_TRANSITIONS = 3

#: extra simulated seconds granted beyond the mission for campaign
#: retries to drain before the no-hang invariant trips
CAMPAIGN_GRACE_S = 900.0

#: resumable uploads must cost at most this many times the file size in
#: bytes offered to the link (restart-from-zero pays >= 2x across one
#: mid-transfer blackout)
MAX_UPLOAD_OVERHEAD = 1.5

#: demand-plane circuit breaker: consecutive service failures that trip
#: it, and how many frames it stays open before probing half-open
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_FRAMES = 5.0

#: a surge keeps at least this share of its clean twin's p0 goodput
P0_GOODPUT_FLOOR = 0.9
#: a clean demand plane (multiplier 1.0) rejects at most this share
NOMINAL_MAX_REJECTED = 0.01

#: configuration bits a ``seu.load`` fault of magnitude 0 upsets per load
SEU_LOAD_BITS = 32

#: telemetry plane: TM downlink poll (s), ground playback poll (s),
#: records released per downlink poll (keeps bursts inside the link's
#: bounded transmit backlog), and the margin (s) before a scheduled
#: contact end past which the satellite stops releasing playback
TM_DOWNLINK_PERIOD_S = 2.0
PLAYBACK_POLL_S = 10.0
PLAYBACK_CHUNK = 64
PLAYBACK_GUARD_S = 5.0


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``metrics`` is flat JSON-able data (the golden summary);
    ``kind_counts`` maps trace-event kinds to counts so a hash drift
    diffs down to *which* event stream diverged; the per-frame histories
    feed the invariant checks (``alarm_history`` counts the alarms
    standing before the arbiter acts -- tripped carrier monitors plus a
    dead shared decoder -- the FDIR detection signal);
    ``demand_sojourns`` holds the queueing delay, in frames, of every
    demand request a surge mission served.
    """

    spec: ScenarioSpec
    completed: bool
    error: Optional[str]
    trace_hash: str
    kind_counts: Dict[str, int]
    metrics: Dict[str, object]
    active_history: List[int] = field(default_factory=list)
    alarm_history: List[int] = field(default_factory=list)
    severity_history: List[float] = field(default_factory=list)
    frame_ok_history: List[bool] = field(default_factory=list)
    demand_sojourns: List[float] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def detection_latency(self) -> Optional[int]:
        """Frames from the first injected fault or fade to the first
        standing alarm (``None`` when nothing was injected or detected)."""
        onset = self.spec.fault_onset
        if onset is None:
            return None
        for f in range(onset, len(self.alarm_history)):
            if self.alarm_history[f]:
                return f - onset
        return None


class _DemandPlane:
    """Overload-control accounting for a scenario's demand surge.

    Rides the same simulation clock as the mission: each frame the
    surge profile's arrivals pass the ingress
    :class:`~repro.robustness.overload.admission.AdmissionController`
    (shares from the mission-year service mix), admitted requests wait
    in one :class:`~repro.robustness.overload.queues.BoundedQueue` per
    class, a head whose sojourn reaches its class budget is shed
    (counted ``expired``) instead of served, and a
    :class:`~repro.robustness.overload.brownout.BrownoutLadder` driven
    by an EWMA of offered load over capacity sheds/restores the low
    classes.  Serving capacity tracks the degraded-mode policy's live
    active-carrier count, coupling the demand plane to the link budget,
    and service runs behind a
    :class:`~repro.robustness.overload.brownout.CircuitBreaker` that
    counts a failure for every request served while the shared decoder
    is down.
    Pressure is offered demand, not queue depth, so shed classes stay
    shed until the surge truly ends instead of flapping.
    """

    #: per-class queue budgets, in frames (tighter for lower priority)
    CLASS_BUDGET_FRAMES = {"p0": 8.0, "p1": 6.0, "p2": 4.0}
    #: per-class queue bound, in requests
    QUEUE_CAPACITY = 64
    #: service-mix epoch the admission shares are drawn from
    MIX_YEAR = 5.0

    def __init__(self, spec: ScenarioSpec, sim: Simulator, rng) -> None:
        assert spec.surge is not None
        self.spec = spec
        self.surge = spec.surge
        self.sim = sim
        self.rng = rng
        clock = lambda: sim.now  # noqa: E731
        fd = spec.frame_duration
        self.per_sec = 1.0 / fd
        cap_rate = (
            self.surge.per_carrier_capacity * spec.num_carriers * self.per_sec
        )
        self.admission = AdmissionController.from_service_mix(
            TrafficModel().mix_at(self.MIX_YEAR), cap_rate, clock
        )
        self.shares = self.admission.shares
        self.classes = sorted(self.shares)
        self.queues = {
            c: BoundedQueue(self.QUEUE_CAPACITY, clock, name=f"demand.{c}")
            for c in self.classes
        }
        self.ladder = BrownoutLadder(clock, dwell=5.0 * fd)
        self.breaker = CircuitBreaker(
            clock,
            failure_threshold=BREAKER_THRESHOLD,
            cooldown=BREAKER_COOLDOWN_FRAMES * fd,
            name="demand",
        )
        self.arrivals = {c: 0 for c in self.classes}
        self.served = {c: 0 for c in self.classes}
        self.expired = {c: 0 for c in self.classes}
        self.failed = {c: 0 for c in self.classes}
        self.sojourns: List[float] = []
        self._ewma = 0.0

    def step(self, frame: int, n_active: int, failing: bool) -> None:
        """One frame of arrivals, ladder control and priority service."""
        cap_frame = self.surge.per_carrier_capacity * max(n_active, 0)
        cap_rate = cap_frame * self.per_sec
        if cap_rate != self.admission.capacity:
            self.admission.set_capacity(cap_rate)
        mult = self.surge.multiplier_at(frame)
        offered = 0
        for c in self.classes:
            lam = self.surge.nominal_rps * self.shares[c] * mult
            n = int(self.rng.poisson(lam))
            self.arrivals[c] += n
            offered += n
            for _ in range(n):
                if self.admission.admit(c):
                    self.queues[c].offer(frame)
        pressure = offered / max(cap_frame, 1.0)
        self._ewma = 0.5 * pressure + 0.5 * self._ewma
        for action, c in self.ladder.update(self._ewma):
            if action == "shed":
                self.admission.shed(c)
            else:
                self.admission.restore(c)
        budget = int(cap_frame)
        fd = self.spec.frame_duration
        for c in self.classes:
            q = self.queues[c]
            budget_s = self.CLASS_BUDGET_FRAMES[c] * fd
            while budget > 0 and len(q) > 0:
                # the one expiry rule: a head that has waited its class
                # budget is shed, not served -- it never reaches the
                # protected stage, so it spends no breaker probe
                expired = q.head_sojourn() >= budget_s
                if not expired and not self.breaker.allow():
                    return  # open breaker: fail fast for the whole frame
                _, sojourn = q.poll_with_sojourn()
                if expired:
                    self.expired[c] += 1
                    continue
                budget -= 1
                if failing:
                    self.failed[c] += 1
                    self.breaker.record_failure()
                else:
                    self.served[c] += 1
                    self.sojourns.append(sojourn / fd)
                    self.breaker.record_success()

    def summary(self) -> Dict[str, object]:
        """Flat JSON-able overload accounting for the golden metrics.

        ``failed`` and ``breaker`` appear only once service has failed,
        so the golden surge records (never faulted) keep their metrics.
        """
        out = {
            "arrivals": dict(self.arrivals),
            "admitted": dict(self.admission.admitted),
            "rejected": dict(self.admission.rejected),
            "served": dict(self.served),
            "expired": dict(self.expired),
            "queues": {c: self.queues[c].stats() for c in self.classes},
            "ladder": self.ladder.stats(),
            "ladder_history": [
                [round(t, 6), action, c]
                for t, action, c in self.ladder.history
            ],
        }
        if any(self.failed.values()):
            out["failed"] = dict(self.failed)
            out["breaker"] = self.breaker.stats()
        return out


class _TelemetryPlane:
    """Store-and-forward telemetry for a contact schedule's ``tm_period``.

    The satellite records one TM record every ``tm_period`` seconds
    (priority classes in turn) into a bounded
    :class:`~repro.robustness.dtn.SolidStateRecorder` attached to the
    on-board controller.  A
    :class:`~repro.net.tm.TelemetryDownlink` releases stored records
    only against the playback budget the ground grants with its
    ``playback`` telecommand, only while the link is up and not within
    :data:`PLAYBACK_GUARD_S` of a scheduled contact end; the ground's
    :class:`~repro.net.tm.TelemetryMonitor` reassembles them and counts
    continuity gaps.
    """

    def __init__(self, contacts, ncc, gateway, scheduler):
        self.sim = sim = scheduler.sim
        self.contacts, self.ncc, self.scheduler = contacts, ncc, scheduler
        self.recorder = SolidStateRecorder(contacts.recorder_capacity)
        gateway.obc.attach_recorder(self.recorder)
        self.produced = {c: 0 for c in PRIORITY_CLASSES}
        self.delivered = {c: 0 for c in PRIORITY_CLASSES}
        downlink = TelemetryDownlink(
            gateway.node, self._source, period=TM_DOWNLINK_PERIOD_S
        )
        ground = ncc.node
        self.monitor = monitor = TelemetryMonitor(ground)
        # the monitor takes over the ground node's frame delivery:
        # forward what is not a TM frame (UDP/TCP traffic) to IP
        tm_tap = ground.frame_tap

        def tap(raw: bytes) -> None:
            tm_tap(raw)
            if monitor.bad_frames:
                monitor.bad_frames = 0
                ground.ip.receive_frame(raw)

        ground.frame_tap = tap
        self.producer = sim.process(self._produce(), name="tm-producer")
        #: only the producer ever ends; any that dies fails the mission
        self.processes = [
            self.producer,
            downlink.process,
            sim.process(self._drain(), name="tm-drainer"),
            sim.process(self._playback(), name="playback-driver"),
        ]

    def _source(self):
        # stored telemetry leaves only with carrier lock and, inside a
        # scheduled pass, not too close to its end
        now = self.sim.now
        if not self.scheduler.effective(now):
            return []
        w = self.scheduler.plan.window_at(now)
        if w is not None and w.end - now < PLAYBACK_GUARD_S:
            return []
        return self.recorder.drain_authorized(max_records=PLAYBACK_CHUNK)

    def _produce(self):
        i = 0
        while self.sim.now < self.contacts.tm_stop:
            cls = PRIORITY_CLASSES[i % len(PRIORITY_CLASSES)]
            self.recorder.record({"cls": cls, "seq": i, "t": self.sim.now}, cls=cls)
            self.produced[cls] += 1
            i += 1
            yield self.sim.timeout(self.contacts.tm_period)

    def _drain(self):
        while True:
            record = yield self.monitor.records.get()
            self.delivered[record["cls"]] += 1

    def _playback(self):
        # a playback budget at every poll the ground can reach the
        # satellite -- the OBC's deficit grant keeps it <= pending
        while True:
            if self.scheduler.effective(self.sim.now):
                try:
                    yield from self.ncc.send_telecommand("playback", {})
                except RetryExhausted:
                    pass
            yield self.sim.timeout(PLAYBACK_POLL_S)

    def summary(self) -> Dict[str, object]:
        return {
            "produced": dict(self.produced),
            "delivered": dict(self.delivered),
            "gaps": self.monitor.gaps,
            "recorder": self.recorder.status(),
        }


class _TruncatingUploads(BoundedUploadStore):
    """The gateway's upload store, cutting the next ``truncate`` uploads
    in half as they land: the transfer completes at the protocol level
    but the stored image fails its container CRC at load time."""

    truncate = 0

    def __setitem__(self, key: str, value: bytes) -> None:
        if self.truncate > 0:
            self.truncate -= 1
            value = value[: len(value) // 2]
        super().__setitem__(key, value)


def _uplink_coding(world: TrafficWorld) -> str:
    """The loaded decoder design, or ``decod.conv`` while it has none."""
    return world.payload.decoder.loaded_design or "decod.conv"


def ground_uplink(
    world: TrafficWorld,
    carriers,
    blocks: np.ndarray,
    sigma: float,
    noise_rng,
    *,
    boost=None,
    cfo=None,
    blank=(),
) -> np.ndarray:
    """The ground segment of one MF-TDMA frame: the wideband uplink block.

    Carrier ``carriers[i]`` sends transport block ``blocks[i]``: the
    ``(C, k)`` stack is coded in one call by the ground twin of the
    loaded decoder, each coded block is zero-filled into one burst of
    the ground twin of that carrier's loaded modem, and the bursts are
    synthesized together.  Per carrier, in carrier order: a carrier
    frequency offset of ``cfo[k]`` cycles/sample, then complex AWGN
    of per-dimension std ``sigma`` raised by ``boost[k]`` dB; a
    carrier in ``blank`` sends the noise alone.  Carriers not listed
    stay silent in the frequency multiplex.

    Raises ``ValueError`` when a coded block does not fit its burst.
    """
    boost = boost or {}
    cfo = cfo or {}
    coding = _uplink_coding(world)
    senders, burst_bits = [], []
    for k, row in zip(carriers, world.ground(coding).encode(blocks)):
        design = world.payload.demods[k].loaded_design or "modem.tdma"
        modem = world.ground(design)
        if len(row) > modem.bits_per_burst:
            raise ValueError(
                f"carrier {k}: {coding} codes {len(row)} bits, more than "
                f"the {modem.bits_per_burst}-bit burst of {design}"
            )
        bb = np.zeros(modem.bits_per_burst, dtype=np.uint8)
        bb[: len(row)] = row
        senders.append((design, modem))
        burst_bits.append(bb)
    bursts = transmit_carriers(senders, burst_bits)
    n_car = world.num_carriers
    mat = np.zeros((n_car, max(len(s) for s in bursts)), dtype=np.complex128)
    for k, s in zip(carriers, bursts):
        if k in blank:
            s = np.zeros_like(s)
        elif cfo.get(k, 0.0):
            s = s * np.exp(2j * np.pi * cfo[k] * np.arange(len(s)))
        sigma_k = sigma * 10.0 ** (boost.get(k, 0.0) / 20.0)
        mat[k, : len(s)] = awgn(s, sigma_k, noise_rng)
    return multiplex_carriers(mat, n_car)


class ScenarioRunner:
    """Compile one spec onto the kernel and run it end to end."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec.validate()

    # -- world assembly ---------------------------------------------------
    def _build(self):
        spec = self.spec
        sim = Simulator()
        rngs = RngRegistry(derive_seed(spec.seed, "scenario", spec.name))
        world = build_traffic_world(
            num_carriers=spec.num_carriers,
            down_cn_db=spec.link.down_cn_db,
            required_ber=spec.link.required_ber,
        )
        ground = Node(sim, "ncc", 1)
        space = Node(sim, "sat", 2)
        link = Link(
            sim,
            delay=spec.ground.delay,
            rate_bps=spec.ground.rate_bps,
            ber=spec.ground.ber,
            rng=rngs.stream("ground.link") if spec.ground.ber else None,
        )
        link.attach(ground)
        link.attach(space)
        gateway = SatelliteGateway(space, world.payload, uploads=_TruncatingUploads())
        cfg = world.payload.config
        ncc = NetworkControlCenter(
            ground,
            world.payload.registry,
            sat_address=2,
            fpga_geometry=(cfg.fpga_rows, cfg.fpga_cols, cfg.fpga_bits_per_clb),
            rng=rngs.stream("ground.jitter"),
        )
        if spec.contacts is not None:
            # DTN ground segment: the contact scheduler drives the link
            # up and down, and every reconfiguration upload rides the
            # checkpointed resumable-transfer layer so a campaign that
            # straddles a gap resumes instead of re-sending the file
            plan = ContactPlan(
                tuple(ContactWindow(s, e) for s, e in spec.contacts.windows)
            )
            scheduler = LinkScheduler(
                link,
                plan,
                tuple(OutageEvent(s, d) for s, d in spec.contacts.outages),
                name=f"scenario.{spec.name}",
            )
            receiver = ResumableReceiver(gateway.uploads)
            gateway.attach_transfer(receiver)
            uploader = ResumableUploader(
                ncc, scheduler, segment_size=spec.contacts.segment_size
            )
            ncc.attach_resumable(uploader)
            self._dtn = (scheduler, uploader)
            if spec.contacts.tm_period > 0:
                self._tm = _TelemetryPlane(spec.contacts, ncc, gateway, scheduler)
        return sim, rngs, world, ncc, gateway

    # -- per-frame channel/fault compilation -------------------------------
    def _channel_state(self, frame: int):
        """(blank set, noise-boost map, cfo map) afflicting ``frame``."""
        blank, boost, cfo = set(), {}, {}
        for ev in self.spec.faults:
            if ev.kind not in CHANNEL_FAULT_KINDS or not ev.active_at(frame):
                continue
            if ev.kind == "blank":
                blank.add(ev.carrier)
            elif ev.kind == "interference":
                boost[ev.carrier] = boost.get(ev.carrier, 0.0) + ev.magnitude
            elif ev.kind == "cfo":
                cfo[ev.carrier] = cfo.get(ev.carrier, 0.0) + ev.magnitude
        return blank, boost, cfo

    def _strike(self, world: TrafficWorld, ncc, gateway, ev: FaultEvent, rng) -> None:
        """Apply one equipment or campaign fault at its scheduled frame."""
        if ev.kind == "seu.decoder":
            fpga = world.payload.decoder.fpga
            n = fpga.rows * fpga.cols * fpga.bits_per_clb
            count = int(ev.magnitude) or 200
            fpga.upset_bits(rng.choice(n, size=min(count, n), replace=False))
        elif ev.kind == "latchup.demod":
            pair = world.payload.demods[ev.carrier]
            pair.mark_unit_failed(pair.active)
        elif ev.kind == "seu.load":
            count = int(ev.magnitude) or SEU_LOAD_BITS

            def upset(fpga):
                n = fpga.num_config_bits
                fpga.upset_bits(rng.choice(n, size=min(count, n), replace=False))

            world.payload.obc.manager.default_corrupt_hook = upset
        elif ev.kind == "upload.truncate":
            gateway.uploads.truncate += int(ev.magnitude)
        elif ev.kind == "tm.drop":
            arm_frame_drop(ncc.node, int(ev.magnitude), src_port=TC_PORT)

    # -- the mission process ----------------------------------------------
    def _campaign(self, ncc: NetworkControlCenter, rc: ReconfigAction):
        result = yield from ncc.reconfigure_equipment(
            rc.equipment, rc.function, protocol=rc.protocol, version=rc.version
        )
        return result

    def _mission(self, sim, rngs, world, ncc, gateway):
        spec = self.spec
        probe = _obs_probe("scenario", name=spec.name)
        if spec.surge is not None:
            self._demand = _DemandPlane(
                spec, sim, rngs.stream("demand.arrivals")
            )
        offer_rng = rngs.stream("traffic.offer")
        bits_rng = rngs.stream("traffic.bits")
        noise_rng = rngs.stream("channel.noise")
        seu_rng = rngs.stream("fault.seu")
        campaigns = []
        by_frame: Dict[int, List[ReconfigAction]] = {}
        for rc in spec.reconfigs:
            by_frame.setdefault(rc.frame, []).append(rc)
        for f in range(spec.frames):
            for rc in by_frame.get(f, ()):
                campaigns.append(
                    sim.process(
                        self._campaign(ncc, rc),
                        name=f"reconfig.{rc.equipment}.{rc.function}",
                    )
                )
            for ev in spec.faults:
                if ev.kind == "seu.load" and f == ev.frame + ev.duration:
                    world.payload.obc.manager.default_corrupt_hook = None
                if ev.kind not in CHANNEL_FAULT_KINDS and ev.frame == f:
                    self._strike(world, ncc, gateway, ev, seu_rng)
            self._frame(f, world, offer_rng, bits_rng, noise_rng, probe)
            yield sim.timeout(spec.frame_duration)
        # join outstanding reconfiguration campaigns and the telemetry
        # producer so the exactly-once and recorder accounting is final
        # when the mission event fires; a campaign or background process
        # that already died fails the mission with its own exception
        # (finished processes are not yielded: that would add kernel
        # events to every mission)
        tm = self._tm
        for proc in campaigns + ([tm.producer] if tm else []):
            if proc.is_alive:
                yield proc
        for proc in campaigns + (tm.processes if tm else []):
            if not proc.is_alive and not proc.ok:
                raise proc.value

    def _frame(self, f, world, offer_rng, bits_rng, noise_rng, probe):
        spec = self.spec
        n_car = spec.num_carriers
        fade = spec.fade_db(f)
        severity = spec.severity(f)
        blank, boost, cfo = self._channel_state(f)
        expected_final = (
            spec.expected_final_active
            if spec.expected_final_active is not None
            else n_car
        )
        active = [
            k
            for k in world.policy.active_carriers
            if k not in world.policy.terminal
        ]
        cn = shared_uplink_cn(
            spec.link.base_cn_db, fade, n_car, max(1, len(active))
        )
        if self._demand is not None:
            self._demand.step(
                f, len(active), failing=not world.payload.decoder.operational
            )
        frame_ok = len(active) == expected_final
        # idle carriers still carry a keep-alive burst (random fill,
        # same signal statistics as traffic) so the health monitors
        # keep seeing sync -- real MF-TDMA slots are never silent
        # unless the carrier is shed
        offered = {
            k: bool(offer_rng.random() < spec.traffic.probability(k))
            for k in active
        }
        k_tb = world.ground(_uplink_coding(world)).transport_block
        blocks = bits_rng.integers(0, 2, (len(active), k_tb)).astype(np.uint8)
        sent = dict(zip(active, blocks))
        # rolling checksum of what was sent and what was regenerated:
        # traced per frame so the golden hash covers payload *content*,
        # not just delivery counts
        content_crc = zlib.crc32(blocks.tobytes())
        delivered_now = 0
        if active:
            wide = ground_uplink(
                world,
                active,
                blocks,
                ebn0_to_sigma(cn, 1, 1.0),
                noise_rng,
                boost=boost,
                cfo=cfo,
                blank=blank,
            )
            out = world.payload.process_uplink(wide, decode=True)
            for k in active:
                verdict = world.bank.monitor(k).last
                healthy = verdict is not None and verdict.healthy
                decoded = out["decoded"][k]
                crc_ok = bool(decoded and decoded["crc_ok"])
                if decoded is not None:
                    content_crc = zlib.crc32(
                        np.asarray(decoded["bits"], dtype=np.uint8).tobytes(),
                        content_crc,
                    )
                if not offered[k]:
                    self._m["keepalive"] += 1
                    if not (healthy and crc_ok):
                        frame_ok = False
                    continue
                self._m["attempted"] += 1
                bits_match = bool(
                    decoded is not None
                    and np.array_equal(decoded["bits"], sent[k])
                )
                if decoded is not None and not crc_ok:
                    self._m["crc_failures"] += 1
                if healthy and crc_ok:
                    self._m["delivered"] += 1
                    delivered_now += 1
                    if not bits_match:
                        self._m["corrupt"] += 1
                else:
                    frame_ok = False
        else:
            frame_ok = expected_final == 0
        # the FDIR detection signal: tripped carrier alarms, plus the
        # shared decoder's own alarm when its equipment is down
        alarms = len(world.bank.tripped_carriers())
        alarms += not world.payload.decoder.operational
        world.arbiter.step(served=active)
        world.policy.update(cn)
        self.active_history.append(len(world.policy.active_carriers))
        self.alarm_history.append(alarms)
        self.severity_history.append(severity)
        self.frame_ok_history.append(frame_ok)
        if probe is not None:
            probe.event(
                "scenario.frame",
                f=f,
                active=len(active),
                offered=sum(offered.values()),
                delivered=delivered_now,
                fade=round(fade, 6),
                crc=content_crc,
            )

    # -- execution ---------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Run the scenario under a fresh observability session."""
        spec = self.spec
        self._demand: Optional[_DemandPlane] = None
        self._dtn = None
        self._tm: Optional[_TelemetryPlane] = None
        self._m = {
            "attempted": 0,
            "delivered": 0,
            "corrupt": 0,
            "crc_failures": 0,
            "keepalive": 0,
        }
        self.active_history: List[int] = []
        self.alarm_history: List[int] = []
        self.severity_history: List[float] = []
        self.frame_ok_history: List[bool] = []
        completed, error = True, None
        with obs.session(tracer=Tracer(capacity=TRACE_CAPACITY)) as (_, tracer):
            sim, rngs, world, ncc, gateway = self._build()
            tracer.set_clock(lambda: sim.now)
            mission = sim.process(
                self._mission(sim, rngs, world, ncc, gateway),
                name=f"mission.{spec.name}",
            )
            limit = spec.frames * spec.frame_duration + CAMPAIGN_GRACE_S
            try:
                sim.run_until_event(mission, limit=limit)
            except Exception as exc:
                completed = False
                error = f"{type(exc).__name__}: {exc}"
                while len(self.active_history) < spec.frames:
                    self.active_history.append(0)
                    self.alarm_history.append(0)
                    self.severity_history.append(0.0)
                    self.frame_ok_history.append(False)
            metrics = self._collect(sim, world, ncc, gateway, tracer)
            trace_hash = tracer.hash()
            kind_counts = tracer.kind_counts()
        return ScenarioResult(
            spec=spec,
            completed=completed,
            error=error,
            trace_hash=trace_hash,
            kind_counts=kind_counts,
            metrics=metrics,
            active_history=self.active_history,
            alarm_history=self.alarm_history,
            severity_history=self.severity_history,
            frame_ok_history=self.frame_ok_history,
            demand_sojourns=self._demand.sojourns if self._demand else [],
        )

    def _collect(self, sim, world, ncc, gateway, tracer) -> Dict[str, object]:
        spec = self.spec
        action_counts: Dict[str, int] = {}
        for _frame, _carrier, kind, _detail in world.arbiter.actions:
            action_counts[kind] = action_counts.get(kind, 0) + 1
        policy_counts: Dict[str, int] = {}
        for kind, _carrier, _margin in world.policy.events:
            policy_counts[kind] = policy_counts.get(kind, 0) + 1
        final_active = len(
            [
                k
                for k in world.policy.active_carriers
                if k not in world.policy.terminal
            ]
        )
        m = dict(self._m)
        m.update(
            {
                "frames": spec.frames,
                "final_active": final_active,
                "terminal_carriers": sorted(world.policy.terminal),
                "safe_mode": sorted(getattr(world.watchdog, "safe_mode", {})),
                "actions": dict(sorted(action_counts.items())),
                "policy_events": dict(sorted(policy_counts.items())),
                "alarm_trips": {
                    str(k): mon.trips for k, mon in world.bank.monitors.items()
                },
                "policy_transitions": {
                    str(k): world.policy.transitions_of(k)
                    for k in range(spec.num_carriers)
                },
                "personalities": world.payload.personalities(),
                "ncc": ncc.stats,
                "gateway": dict(gateway.stats),
                "reconfigs": [
                    {
                        "function": r.function,
                        "protocol": r.protocol,
                        "success": bool(r.success),
                        "rolled_back": bool(r.rolled_back),
                    }
                    for r in ncc.results
                ],
                "sim_time": round(sim.now, 6),
                "sim_events": sim.event_count,
                "trace_events": tracer.total,
            }
        )
        # terminal latches (the hardware is gone) skip the golden load
        golden_failures = [
            e["equipment"]
            for e in world.watchdog.entries
            if not (e["loaded"] or e.get("terminal"))
        ]
        if golden_failures:
            m["golden_load_failures"] = golden_failures
        if self._demand is not None:
            m["overload"] = self._demand.summary()
        if self._dtn is not None:
            scheduler, uploader = self._dtn
            contact = {
                k: (round(val, 6) if isinstance(val, float) else val)
                for k, val in scheduler.stats().items()
            }
            m["dtn"] = {
                "contact": contact,
                "uploader": dict(uploader.stats),
                "transfers": {
                    name: {
                        "segments": st.num_segments,
                        "completed": len(st.completed),
                        "resumes": st.resumes,
                        "segments_resent": st.segments_resent,
                        "bytes_sent": st.bytes_sent,
                        "overhead_ratio": round(st.overhead_ratio, 6),
                        "finished": st.finished,
                    }
                    for name, st in sorted(uploader.journal.items())
                },
            }
            if self._tm is not None:
                m["dtn"]["telemetry"] = self._tm.summary()
        return m


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience: validate, compile and run one scenario."""
    return ScenarioRunner(spec).run()


def _overload_violations(
    spec: ScenarioSpec,
    ov: Dict,
    sojourns: List[float],
    nominal: Optional[Dict],
) -> List[str]:
    """Shed-before-collapse invariants for a surge scenario's accounting
    (``nominal``: the overload accounting of its clean twin, if run)."""
    v: List[str] = []
    failed = ov.get("failed", {})
    for c in sorted(ov["arrivals"]):
        n = ov["arrivals"][c]
        if ov["admitted"][c] + ov["rejected"][c] != n:
            v.append(f"overload {c}: admitted+rejected != arrivals ({n})")
        q = ov["queues"][c]
        if q["offered"] != ov["admitted"][c]:
            v.append(f"overload {c}: queue offered != admitted")
        if q["accepted"] + q["dropped"] != q["offered"]:
            v.append(f"overload {c}: accepted+dropped != offered")
        if q["served"] + q["depth"] != q["accepted"]:
            v.append(f"overload {c}: served+depth != accepted")
        if ov["served"][c] + ov["expired"][c] + failed.get(c, 0) != q["served"]:
            v.append(f"overload {c}: served+expired+failed != queue served")
        if q["max_depth"] > q["capacity"]:
            v.append(
                f"overload {c}: queue depth {q['max_depth']} exceeded its "
                f"bound {q['capacity']}"
            )
        if ov["served"][c] == 0:
            v.append(f"overload: {c} starved (zero served during the mission)")
    p99 = np.percentile(sojourns, 99) if sojourns else 0.0
    if p99 > max(_DemandPlane.CLASS_BUDGET_FRAMES.values()):
        v.append(f"overload: p99 served sojourn {p99:.2f} frames over budget")
    offered = sum(ov["arrivals"].values())
    rejected = sum(ov["rejected"].values())
    if spec.surge.multiplier == 1.0:
        if rejected > NOMINAL_MAX_REJECTED * offered:
            v.append(f"overload: clean demand rejected {rejected}/{offered}")
        if ov["ladder_history"]:
            v.append("overload: clean demand engaged the brownout ladder")
    if spec.surge.multiplier >= 2.0 and not rejected:
        v.append(
            "overload: a real surge was absorbed without shedding anything "
            "-- admission control never engaged"
        )
    p0 = ov["served"]["p0"]
    base = nominal["served"]["p0"] if nominal else 0
    if p0 < P0_GOODPUT_FLOOR * base:
        v.append(f"overload: p0 goodput {p0} < {P0_GOODPUT_FLOOR} x twin's {base}")
    if ov["ladder"]["level"] != 0:
        v.append(
            f"overload: brownout ladder still {ov['ladder']['level']} deep "
            "at mission end (no restore)"
        )
    per_class: Dict[str, List[str]] = {}
    for _t, action, c in ov["ladder_history"]:
        per_class.setdefault(c, []).append(action)
    for c, actions in per_class.items():
        if actions not in (["shed"], ["shed", "restore"]):
            v.append(f"overload: class {c} ladder flapped: {actions}")
    breaker = ov.get("breaker")
    if breaker is not None and breaker["trips"]:
        if breaker["trips"] > MAX_ALARM_TRIPS:
            v.append(f"flapping: demand breaker tripped {breaker['trips']} times")
        if breaker["state"] != CircuitBreaker.CLOSED:
            v.append(f"overload: breaker ended {breaker['state']}, not closed")
    return v


def _dtn_violations(tm: Dict) -> List[str]:
    """Store-and-forward invariants for a mission's telemetry plane."""
    v: List[str] = []
    rec = tm["recorder"]
    produced = sum(tm["produced"].values())
    delivered = sum(tm["delivered"].values())
    if rec["recorded"] + rec["dropped"] != produced:
        v.append(f"dtn: recorder ingress: recorded+dropped != {produced} produced")
    if rec["played_back"] + rec["pending"] + rec["evicted"] != rec["recorded"]:
        v.append("dtn: recorder egress: played+pending+evicted != recorded")
    if rec["pending"]:
        v.append(f"dtn: {rec['pending']} records still on board at end")
    if rec["shed_by_class"]["p0"]:
        v.append(f"dtn: recorder shed {rec['shed_by_class']['p0']} p0 records")
    if tm["delivered"]["p0"] != tm["produced"]["p0"]:
        v.append(f"dtn: p0 loss, {tm['delivered']['p0']}/{tm['produced']['p0']}")
    if not rec["shed"]:
        if delivered != produced:
            v.append(f"dtn: TM loss, {delivered}/{produced} delivered unshed")
        if tm["gaps"]:
            v.append(f"dtn: {tm['gaps']} TM continuity gaps")
    return v


def result_violations(
    result: ScenarioResult, nominal: Optional[ScenarioResult] = None
) -> List[str]:
    """Cross-cutting invariants every scenario run must satisfy.

    Returns human-readable violation strings (empty list = clean run).
    ``nominal`` is the run of the surge spec's clean twin
    (:func:`repro.scenarios.catalog.nominal_twin`): when given, p0
    goodput must hold :data:`P0_GOODPUT_FLOOR` of the twin's.  The
    trace-hash run-to-run reproducibility invariant is checked by the
    callers that run a spec twice; everything else is here.
    """
    spec = result.spec
    v: List[str] = []
    if not result.completed:
        # the no-hang invariant: a run that exceeded its simulated-time
        # budget or crashed is reported here, never hangs the suite
        v.append(f"run did not complete: {result.error}")
        return v
    m = result.metrics
    if m["corrupt"]:
        v.append(
            f"silent corruption: {m['corrupt']} delivered blocks differed "
            "from what the terminals sent"
        )
    for k, trips in m["alarm_trips"].items():
        if trips > MAX_ALARM_TRIPS:
            v.append(f"flapping: carrier {k} alarm tripped {trips} times")
    for k, n in m["policy_transitions"].items():
        if n > MAX_POLICY_TRANSITIONS:
            v.append(f"flapping: carrier {k} shed/restored {n} times")
    for f in range(1, spec.frames):
        if (
            result.severity_history[f] > result.severity_history[f - 1]
            and result.active_history[f] > result.active_history[f - 1]
        ):
            v.append(
                f"non-monotonic: frame {f} restored capacity while the "
                "injected fault was worsening"
            )
            break
    expected = (
        spec.expected_final_active
        if spec.expected_final_active is not None
        else spec.num_carriers
    )
    if m["final_active"] != expected:
        v.append(
            f"no recovery: {m['final_active']} active carriers at end, "
            f"expected {expected}"
        )
    kinds = set(m["actions"]) | set(m["policy_events"])
    for want in spec.expect_actions:
        if want not in kinds:
            v.append(f"expected action {want!r} never happened")
    for bad in spec.forbid_actions:
        if bad in kinds:
            v.append(f"forbidden action {bad!r} happened")
    if spec.recovery_tail:
        tail = result.frame_ok_history[-spec.recovery_tail :]
        if tail and sum(tail) < len(tail):
            v.append(
                f"no recovery: only {sum(tail)}/{len(tail)} clean frames "
                "in the recovery tail"
            )
    if spec.surge is not None:
        ov = m.get("overload")
        if ov is None:
            v.append("surge scenario produced no overload accounting")
        else:
            base = nominal.metrics.get("overload") if nominal else None
            v.extend(_overload_violations(spec, ov, result.demand_sojourns, base))
    if spec.contacts is not None:
        dtn = m.get("dtn")
        if dtn is None:
            v.append("contact scenario produced no DTN accounting")
        else:
            for name, tr in sorted(dtn["transfers"].items()):
                if not tr["finished"]:
                    v.append(f"dtn: transfer {name} never finished")
                elif tr["overhead_ratio"] > MAX_UPLOAD_OVERHEAD:
                    v.append(
                        f"dtn: transfer {name} cost "
                        f"{tr['overhead_ratio']:.2f}x the file size "
                        f"(bound {MAX_UPLOAD_OVERHEAD}x)"
                    )
            if "telemetry" in dtn:
                v.extend(_dtn_violations(dtn["telemetry"]))
    ncc_stats, gw = m["ncc"], m["gateway"]
    issued = ncc_stats["tc_issued"]
    if gw["executed"] + gw["rejected"] > issued:
        v.append(f"exactly-once broken: executed+rejected > {issued} issued")
    if not ncc_stats["exhausted"] and gw["executed"] != issued:
        v.append(
            f"exactly-once broken: {issued} telecommands issued but "
            f"{gw['executed']} executed on board"
        )
    if m.get("golden_load_failures"):
        v.append(
            f"safe mode without its golden image: {m['golden_load_failures']}"
        )
    if spec.reconfigs:
        failed = [r["function"] for r in m["reconfigs"] if not r["success"]]
        if failed and not any(ev.kind in CAMPAIGN_FAULT_KINDS for ev in spec.faults):
            v.append(f"reconfiguration campaigns failed: {failed}")
        # never bricked: a campaign a fault made fail still leaves its
        # equipment carrying a personality (rolled back or golden)
        bricked = sorted(
            {
                rc.equipment
                for rc in spec.reconfigs
                if rc.function in failed
                and m["personalities"].get(rc.equipment) is None
            }
        )
        if bricked:
            v.append(f"bricked: {bricked} carry no personality after a failed campaign")
        if len(m["reconfigs"]) != len(spec.reconfigs):
            v.append(
                f"only {len(m['reconfigs'])}/{len(spec.reconfigs)} planned "
                "reconfigurations completed"
            )
    return v
