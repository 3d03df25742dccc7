"""Property-based kernel tests: seeded random schedules.

``hypothesis`` is deliberately not a dependency; instead each property is
exercised against a family of pseudo-random schedules drawn from
``random.Random(seed)`` for a spread of seeds.  The properties:

- :class:`AnyOf` fires exactly at the minimum of its members' delays and
  only same-instant members appear in its value dict;
- triggering an event twice (succeed/succeed, succeed/fail, fail/any)
  raises :class:`SimulatorError`;
- completion order of a random schedule is a pure function of the seed
  (FIFO among equal timestamps).
"""

import random

import pytest

from repro.sim import AnyOf, Simulator, SimulatorError

SEEDS = range(8)


def random_delays(seed, n=None, lo=0.0, hi=10.0):
    r = random.Random(seed)
    n = n or r.randint(2, 12)
    # round to a grid so equal-timestamp ties actually occur sometimes
    return [round(r.uniform(lo, hi), 1) for _ in range(n)]


class TestAnyOfProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fires_at_min_delay(self, seed):
        sim = Simulator()
        delays = random_delays(seed)
        events = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
        got = {}

        def waiter(sim):
            got["result"] = yield AnyOf(sim, events)
            got["t"] = sim.now

        sim.process(waiter(sim))
        sim.run()
        assert got["t"] == min(delays)
        # every event reported by the composite fired at that same instant
        assert got["result"]  # at least the winner
        for ev, val in got["result"].items():
            assert delays[val] == min(delays)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_empty_anyof_fires_immediately(self, seed):
        sim = Simulator(start_time=float(seed))
        got = {}

        def waiter(sim):
            got["result"] = yield AnyOf(sim, [])
            got["t"] = sim.now

        sim.process(waiter(sim))
        sim.run()
        assert got["result"] == {}
        assert got["t"] == float(seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_failure_propagates(self, seed):
        sim = Simulator()
        r = random.Random(seed)
        boom_at = round(r.uniform(0.0, 5.0), 2)
        ok = sim.timeout(boom_at + 1.0)
        bad = sim.event()
        bad.fail(RuntimeError("boom"), delay=boom_at)
        caught = {}

        def waiter(sim):
            try:
                yield AnyOf(sim, [ok, bad])
            except RuntimeError as exc:
                caught["exc"] = exc
                caught["t"] = sim.now

        sim.process(waiter(sim))
        sim.run()
        assert str(caught["exc"]) == "boom"
        assert caught["t"] == boom_at


class TestDoubleTrigger:
    def test_succeed_twice_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulatorError):
            ev.succeed(2)

    def test_succeed_then_fail_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulatorError):
            ev.fail(RuntimeError("late"))

    def test_fail_then_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        with pytest.raises(SimulatorError):
            ev.succeed()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_second_trigger_always_raises(self, seed):
        r = random.Random(seed)
        sim = Simulator()
        ev = sim.event()
        first = r.choice(["succeed", "fail"])
        second = r.choice(["succeed", "fail"])
        getattr(ev, first)(*([RuntimeError("a")] if first == "fail" else []))
        with pytest.raises(SimulatorError):
            getattr(ev, second)(*([RuntimeError("b")] if second == "fail" else []))


class TestScheduleDeterminism:
    """Completion order is a pure function of the seed (FIFO tie-break)."""

    def _order(self, seed, n=20):
        r = random.Random(seed)
        delays = [round(r.uniform(0.0, 5.0), 1) for _ in range(n)]  # many ties
        sim = Simulator()
        order = []

        def worker(sim, i, d):
            yield sim.timeout(d)
            order.append(i)

        for i, d in enumerate(delays):
            sim.process(worker(sim, i, d), name=f"w{i}")
        sim.run()
        return delays, order

    @pytest.mark.parametrize("seed", SEEDS)
    def test_order_is_reproducible(self, seed):
        d1, o1 = self._order(seed)
        d2, o2 = self._order(seed)
        assert d1 == d2 and o1 == o2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_order_is_sorted_with_fifo_ties(self, seed):
        delays, order = self._order(seed)
        # completion order sorts by (delay, registration index): FIFO
        # among equal timestamps, never reordered by heap internals
        assert order == sorted(range(len(delays)), key=lambda i: (delays[i], i))
