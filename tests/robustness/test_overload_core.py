"""Unit tests for the demand-plane overload-control primitives."""

import pytest

from repro.ncc.traffic import ServiceMix
from repro.robustness.overload import (
    AdmissionController,
    BoundedQueue,
    BrownoutLadder,
    CircuitBreaker,
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
        assert b.try_take() and b.try_take()
        assert not b.try_take()
        clk.advance(100.0)
        for _ in range(4):  # capped at burst
            assert b.try_take()
        assert not b.try_take()

    def test_set_rate_keeps_tokens_but_caps(self):
        clk = FakeClock()
        b = TokenBucket(rate=1.0, burst=10.0, clock=clk)
        b.set_rate(0.5, burst=2.0)
        assert b.rate == 0.5
        assert b.try_take() and b.try_take()  # 10 tokens capped at 2
        assert not b.try_take()

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
        ac = AdmissionController(clk, capacity=3.0)
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
        assert ac.rejected["p2"] == 1
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

# ------------------------------------------------------------------ queues
class TestBoundedQueue:
    def test_offer_poll_fifo(self):
        q = BoundedQueue(3, FakeClock())
        assert q.offer("a") and q.offer("b")
        assert q.poll_with_sojourn()[0] == "a"
        assert q.poll_with_sojourn()[0] == "b"
        assert q.poll_with_sojourn() is None
        assert q.head_sojourn() is None

    def test_full_backpressure_and_drop_counter(self):
        q = BoundedQueue(2, FakeClock())
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert q.dropped == 1
        assert len(q) == 2

    def test_sojourn_uses_clock(self):
        clk = FakeClock()
        q = BoundedQueue(4, clk)
        q.offer("x")
        clk.advance(2.5)
        assert q.head_sojourn() == pytest.approx(2.5)
        item, sojourn = q.poll_with_sojourn()
        assert item == "x" and sojourn == pytest.approx(2.5)

    def test_drain_and_stats(self):
        q = BoundedQueue(4, FakeClock())
        for i in range(3):
            q.offer(i)
        assert [q.poll_with_sojourn()[0] for _ in range(3)] == [0, 1, 2]
        s = q.stats()
        assert s["served"] == 3 and s["depth"] == 0 and s["max_depth"] == 3
        assert s["served"] + s["depth"] == s["accepted"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(0, FakeClock())


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
        br = CircuitBreaker(clk, failure_threshold=1, cooldown=5.0)
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
    """The ladder's thresholds: p2 sheds at 0.85 and restores below 0.6,
    p1 one rung step (0.07) higher on both."""

    def make(self, clk):
        return BrownoutLadder(clk, dwell=2.0)

    def test_sheds_lowest_priority_first(self):
        clk = FakeClock()
        ladder = self.make(clk)
        assert ladder.update(0.86) == [("shed", "p2")]
        assert ladder.shed_classes == ["p2"]
        assert ladder.update(0.95) == [("shed", "p1")]
        assert ladder.shed_classes == ["p2", "p1"]

    def test_deep_spike_sheds_in_order_one_update(self):
        clk = FakeClock()
        ladder = self.make(clk)
        actions = ladder.update(1.0)
        assert actions == [("shed", "p2"), ("shed", "p1")]

    def test_restore_requires_hysteresis_and_dwell(self):
        clk = FakeClock()
        ladder = self.make(clk)
        ladder.update(1.0)  # both shed
        # below both restore thresholds but dwell not served yet
        assert ladder.update(0.3) == []
        clk.advance(1.0)
        assert ladder.update(0.3) == []
        clk.advance(1.0)
        # dwell (2 s) served for both rungs -> both restore
        acts = ladder.update(0.3)
        assert ("restore", "p2") in acts and ("restore", "p1") in acts
        assert ladder.shed_classes == []

    def test_pressure_bounce_resets_dwell(self):
        clk = FakeClock()
        ladder = self.make(clk)
        ladder.update(0.86)  # p2 shed
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
            BrownoutLadder(clk, dwell=-1.0)
