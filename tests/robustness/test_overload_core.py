"""Unit tests for the demand-plane overload-control primitives."""

import math

import pytest

from repro.ncc.traffic import ServiceMix
from repro.robustness.overload import (
    AdmissionController,
    BoundedQueue,
    BrownoutLadder,
    CircuitBreaker,
    CoDelQueue,
    Deadline,
    TokenBucket,
)

pytestmark = pytest.mark.overload


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------- deadline
class TestDeadline:
    def test_after_and_expired(self):
        d = Deadline.after(10.0, 5.0)
        assert d.expires_at == 15.0
        assert not d.expired(14.999)
        assert d.expired(15.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0, 0.0)
        with pytest.raises(ValueError):
            Deadline.after(0.0, -1.0)


# ------------------------------------------------------------ token bucket
class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clk = FakeClock()
        b = TokenBucket(rate=1.0, burst=3.0, clock=clk)
        assert b.try_take() and b.try_take() and b.try_take()
        assert not b.try_take()

    def test_refills_at_rate_capped_at_burst(self):
        clk = FakeClock()
        b = TokenBucket(rate=2.0, burst=4.0, clock=clk)
        for _ in range(4):
            assert b.try_take()
        clk.advance(1.0)  # +2 tokens
        assert b.tokens == pytest.approx(2.0)
        clk.advance(100.0)
        assert b.tokens == pytest.approx(4.0)  # capped

    def test_set_rate_keeps_tokens_but_caps(self):
        clk = FakeClock()
        b = TokenBucket(rate=1.0, burst=10.0, clock=clk)
        b.set_rate(0.5, burst=2.0)
        assert b.tokens == pytest.approx(2.0)
        assert b.rate == 0.5

    def test_validation(self):
        clk = FakeClock()
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0, clock=clk)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0, clock=clk)


# --------------------------------------------------------------- admission
class TestAdmissionController:
    def test_nominal_load_never_rejected(self):
        clk = FakeClock()
        ac = AdmissionController(clk, capacity=10.0)
        # offered exactly at the per-class share for many seconds
        for _ in range(100):
            clk.advance(0.3)  # p0 share ~3.33/s => 1 req / 0.3 s
            assert ac.admit("p0")
        assert ac.rejected["p0"] == 0

    def test_overload_rejected_per_class(self):
        clk = FakeClock()
        ac = AdmissionController(clk, capacity=3.0, burst_seconds=1.0)
        rejected = 0
        for _ in range(50):
            if not ac.admit("p2"):
                rejected += 1
        assert rejected > 0
        # other classes untouched by p2's burst
        assert ac.admit("p0")

    def test_shed_class_rejected_at_door(self):
        clk = FakeClock()
        ac = AdmissionController(clk, capacity=100.0)
        ac.shed("p2")
        assert not ac.admit("p2")
        assert ac.shed_closed["p2"] == 1
        ac.restore("p2")
        assert ac.admit("p2")

    def test_unknown_class_rejected_not_crash(self):
        clk = FakeClock()
        ac = AdmissionController(clk, capacity=10.0)
        assert not ac.admit("p9")

    def test_set_capacity_rescales_buckets(self):
        clk = FakeClock()
        ac = AdmissionController(clk, capacity=9.0)
        r0 = ac.buckets["p0"].rate
        ac.set_capacity(3.0)
        assert ac.buckets["p0"].rate == pytest.approx(r0 / 3.0)
        with pytest.raises(ValueError):
            ac.set_capacity(-1.0)

    def test_from_service_mix_shares(self):
        clk = FakeClock()
        mix = ServiceMix(year=0.0, voice=0.5, video=0.3, text=0.2, total_mbps=2.0)
        ac = AdmissionController.from_service_mix(mix, 100.0, clk)
        assert ac.shares == pytest.approx({"p0": 0.5, "p1": 0.3, "p2": 0.2})

    def test_share_validation(self):
        clk = FakeClock()
        with pytest.raises(ValueError):
            AdmissionController(clk, 1.0, shares={"bogus": 1.0})
        with pytest.raises(ValueError):
            AdmissionController(clk, 1.0, shares={"p0": 0.9, "p1": 0.9})
        with pytest.raises(ValueError):
            AdmissionController(clk, 1.0, shares={"p0": -0.1})

    def test_stats_shape(self):
        clk = FakeClock()
        ac = AdmissionController(clk, capacity=10.0)
        ac.admit("p0")
        s = ac.stats()
        assert s["capacity"] == 10.0
        assert s["admitted"]["p0"] == 1
        assert s["closed"] == []


# ------------------------------------------------------------------ queues
class TestBoundedQueue:
    def test_offer_poll_fifo(self):
        q = BoundedQueue(capacity=3)
        assert q.offer("a") and q.offer("b")
        assert q.poll() == "a"
        assert q.poll() == "b"
        assert q.poll() is None

    def test_full_backpressure_and_drop_counter(self):
        q = BoundedQueue(capacity=2)
        assert q.offer(1) and q.offer(2)
        assert q.full
        assert not q.offer(3)
        assert q.dropped == 1
        assert q.depth == 2

    def test_sojourn_uses_clock(self):
        clk = FakeClock()
        q = BoundedQueue(capacity=4, clock=clk)
        q.offer("x")
        clk.advance(2.5)
        assert q.head_sojourn() == pytest.approx(2.5)
        item, sojourn = q.poll_with_sojourn()
        assert item == "x" and sojourn == pytest.approx(2.5)

    def test_drain_and_stats(self):
        q = BoundedQueue(capacity=4)
        for i in range(3):
            q.offer(i)
        assert q.drain() == [0, 1, 2]
        s = q.stats()
        assert s["served"] == 3 and s["depth"] == 0 and s["max_depth"] == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(capacity=0)


class TestCoDelQueue:
    def test_under_target_never_sheds(self):
        clk = FakeClock()
        q = CoDelQueue(clk, capacity=16, target=0.5, interval=2.0)
        for i in range(10):
            q.offer(i)
            clk.advance(0.1)  # sojourn stays < target
            assert q.poll() == i
        assert q.shed == 0

    def test_standing_queue_sheds_from_head(self):
        clk = FakeClock()
        q = CoDelQueue(clk, capacity=64, target=0.5, interval=1.0)
        # build a standing queue: items age well past target
        for i in range(40):
            q.offer(i)
            clk.advance(0.2)
        # serve slowly; sojourns are seconds >> target, so after one
        # interval above target the control law must start shedding
        shed_before = q.shed
        served = []
        for _ in range(30):
            got = q.poll_with_sojourn()
            if got is not None:
                served.append(got[0])
            clk.advance(0.3)
        assert q.shed > shed_before
        # survivors are still in FIFO order
        assert served == sorted(served)

    def test_recovery_resets_dropping_state(self):
        clk = FakeClock()
        q = CoDelQueue(clk, capacity=64, target=0.5, interval=1.0)
        for i in range(20):
            q.offer(i)
            clk.advance(0.5)
        while q.depth:
            q.poll()
            clk.advance(0.2)
        # fresh traffic with low sojourn: no shedding
        shed = q.shed
        q.offer("fresh")
        clk.advance(0.01)
        assert q.poll() == "fresh"
        assert q.shed == shed
        assert q.stats()["dropping"] is False

    def test_shed_rate_follows_sqrt_law(self):
        # drop_next spacing must shrink as drop_count grows
        clk = FakeClock()
        q = CoDelQueue(clk, capacity=4, target=0.1, interval=1.0)
        assert q.interval / math.sqrt(4) < q.interval / math.sqrt(1)

    def test_param_validation(self):
        clk = FakeClock()
        with pytest.raises(ValueError):
            CoDelQueue(clk, target=0.0)
        with pytest.raises(ValueError):
            CoDelQueue(clk, interval=-1.0)


# --------------------------------------------------------- circuit breaker
class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clk = FakeClock()
        br = CircuitBreaker(clk, failure_threshold=3, cooldown=10.0)
        for _ in range(2):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow()
        assert br.fast_rejects == 1

    def test_success_resets_consecutive_count(self):
        clk = FakeClock()
        br = CircuitBreaker(clk, failure_threshold=3)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == CircuitBreaker.CLOSED

    def test_half_open_probe_then_close(self):
        clk = FakeClock()
        br = CircuitBreaker(
            clk, failure_threshold=1, cooldown=5.0, half_open_probes=2
        )
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        clk.advance(5.0)
        assert br.state == CircuitBreaker.HALF_OPEN
        assert br.allow() and br.allow()
        assert not br.allow()  # probe budget spent
        br.record_success()
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clk = FakeClock()
        br = CircuitBreaker(clk, failure_threshold=1, cooldown=5.0)
        br.record_failure()
        clk.advance(5.0)
        assert br.allow()
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert br.trips == 2
        # cooldown restarts from the re-open
        clk.advance(4.0)
        assert br.state == CircuitBreaker.OPEN
        clk.advance(1.0)
        assert br.state == CircuitBreaker.HALF_OPEN


# ---------------------------------------------------------------- brownout
class TestBrownoutLadder:
    def make(self, clk, **kw):
        kw.setdefault("shed_threshold", 0.8)
        kw.setdefault("restore_threshold", 0.5)
        kw.setdefault("rung_step", 0.1)
        kw.setdefault("dwell", 2.0)
        return BrownoutLadder(clk, **kw)

    def test_sheds_lowest_priority_first(self):
        clk = FakeClock()
        ladder = self.make(clk)
        assert ladder.update(0.85) == [("shed", "p2")]
        assert ladder.shed_classes == ["p2"]
        assert ladder.update(0.95) == [("shed", "p1")]
        assert ladder.shed_classes == ["p2", "p1"]

    def test_deep_spike_sheds_in_order_one_update(self):
        clk = FakeClock()
        ladder = self.make(clk)
        actions = ladder.update(2.0 if False else 1.0)
        assert actions == [("shed", "p2"), ("shed", "p1")]

    def test_restore_requires_hysteresis_and_dwell(self):
        clk = FakeClock()
        ladder = self.make(clk)
        ladder.update(1.0)  # both shed
        # below p2 restore (0.5) but dwell not served yet
        assert ladder.update(0.3) == []
        clk.advance(1.0)
        assert ladder.update(0.3) == []
        clk.advance(1.0)
        # dwell (2 s) served for both rungs -> both restore
        acts = ladder.update(0.3)
        assert ("restore", "p2") in acts and ("restore", "p1") in acts
        assert ladder.level() == 0

    def test_pressure_bounce_resets_dwell(self):
        clk = FakeClock()
        ladder = self.make(clk)
        ladder.update(0.85)  # p2 shed
        ladder.update(0.3)  # dwell starts
        clk.advance(1.5)
        ladder.update(0.7)  # bounce above restore threshold: dwell resets
        clk.advance(1.5)
        assert ladder.update(0.3) == []  # dwell restarted, not served
        clk.advance(2.0)
        assert ladder.update(0.3) == [("restore", "p2")]

    def test_no_flapping_counters(self):
        clk = FakeClock()
        ladder = self.make(clk)
        # oscillate just below shed and just above restore: no actions
        for _ in range(50):
            assert ladder.update(0.75) == []
            clk.advance(0.1)
        assert ladder.shed_events == 0 and ladder.restore_events == 0

    def test_validation(self):
        clk = FakeClock()
        with pytest.raises(ValueError):
            BrownoutLadder(clk, rungs=())
        with pytest.raises(ValueError):
            BrownoutLadder(clk, shed_threshold=0.5, restore_threshold=0.6)
