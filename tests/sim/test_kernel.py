"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AnyOf, Simulator, SimulatorError, Store


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(2.5)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 3.0, "c"))
    sim.process(proc(sim, 1.0, "a"))
    sim.process(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_deterministic():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list(range(10))


def test_event_value_passes_through_yield():
    sim = Simulator()
    got = []

    def proc(sim, ev):
        value = yield ev
        got.append(value)

    ev = sim.event()
    sim.process(proc(sim, ev))
    ev.succeed("payload", delay=1.0)
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulatorError):
        ev.succeed(2)
    with pytest.raises(SimulatorError):
        ev.fail(RuntimeError("x"))


def test_event_fail_propagates_into_process():
    sim = Simulator()
    caught = []

    def proc(sim, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = sim.event()
    sim.process(proc(sim, ev))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_join_returns_value():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return 41

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append(value + 1)

    sim.process(parent(sim))
    sim.run()
    assert results == [42]


def test_process_exception_fails_joiners():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    p = sim.process(bad(sim))
    sim.run()
    assert p.processed and not p.ok
    assert isinstance(p.value, SimulatorError)


def test_anyof_fires_on_first():
    sim = Simulator()
    seen = []

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        seen.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(1.0, ["fast"])]


def test_store_fifo_order():
    sim = Simulator()
    got = []

    def producer(sim, store):
        for i in range(5):
            yield sim.timeout(1.0)
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    store = Store(sim)
    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_put_fires_before_the_getter_it_feeds():
    """One event per put, scheduled ahead of the waiting getter's."""
    sim = Simulator()
    store = Store(sim)
    order = []
    got = store.get()
    got.add_callback(lambda ev: order.append(("get", ev.value)))
    put = store.put("x")
    put.add_callback(lambda ev: order.append(("put", ev.value)))
    store.put("y")
    assert len(store) == 1
    sim.run()
    assert order == [("put", None), ("get", "x")]
    assert sim.event_count == 3
    assert store.get().value == "y" and len(store) == 0


def test_run_until_limit_then_continue():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=5.0)
    assert fired == [] and sim.now == 5.0
    sim.run(until=20.0)
    assert fired == [10.0] and sim.now == 20.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulatorError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "done"

    p = sim.process(child(sim))
    assert sim.run_until_event(p) == "done"


def test_run_until_event_drained_heap_raises():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulatorError):
        sim.run_until_event(ev)


def test_call_at_runs_function():
    sim = Simulator()
    seen = []
    sim.call_at(7.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.0]


def test_call_at_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulatorError):
        sim.call_at(1.0, lambda: None)
