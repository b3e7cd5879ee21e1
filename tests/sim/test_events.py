"""Unit tests for the event primitives."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    EventAlreadyTriggered,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_untriggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(AttributeError):
            _ = ev.value

    def test_succeed_sets_value_after_processing(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert not ev.processed
        sim.run()
        assert ev.processed
        assert ev.value == 42
        assert ev.ok

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        err = RuntimeError("boom")
        ev.fail(err)
        sim.run()
        assert not ev.ok
        assert ev.value is err

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed(2)
        with pytest.raises(EventAlreadyTriggered):
            ev.fail(RuntimeError())

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_in_order(self, sim):
        ev = sim.event()
        order = []
        ev.subscribe(lambda e: order.append(1))
        ev.subscribe(lambda e: order.append(2))
        ev.succeed()
        sim.run()
        assert order == [1, 2]

    def test_late_subscriber_fires_immediately(self, sim):
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        got = []
        ev.subscribe(lambda e: got.append(e.value))
        assert got == ["x"]

    def test_succeed_with_delay(self, sim):
        ev = sim.event()
        seen = []
        ev.subscribe(lambda e: seen.append(sim.now))
        ev.succeed(delay=2.5)
        sim.run()
        assert seen == [2.5]


class TestTimeout:
    def test_fires_at_right_time(self, sim):
        seen = []
        t = sim.timeout(1.5, value="hello")
        t.subscribe(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(1.5, "hello")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.1)

    def test_ordering_is_stable_for_equal_times(self, sim):
        seen = []
        for i in range(5):
            t = sim.timeout(1.0)
            t.subscribe(lambda e, i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        cond = AllOf(sim, [a, b])
        done_at = []
        cond.subscribe(lambda e: done_at.append(sim.now))
        sim.run()
        assert done_at == [2.0]
        assert set(cond.value.values()) == {"a", "b"}

    def test_any_of_fires_on_first(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        cond = AnyOf(sim, [a, b])
        done_at = []
        cond.subscribe(lambda e: done_at.append(sim.now))
        sim.run()
        assert done_at == [1.0]
        assert list(cond.value.values()) == ["a"]

    def test_all_of_fails_fast(self, sim):
        a = sim.event()
        b = sim.timeout(5.0)
        cond = AllOf(sim, [a, b])
        a.fail(RuntimeError("nope"))
        sim.run(until=1.0)
        assert cond.triggered and not cond.ok

    def test_empty_all_of_succeeds_immediately(self, sim):
        cond = AllOf(sim, [])
        sim.run()
        assert cond.processed and cond.value == {}

    def test_cross_simulator_rejected(self, sim):
        other = Simulator()
        ev = other.event()
        with pytest.raises(ValueError):
            AllOf(sim, [ev])
