"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcessBasics:
    def test_process_runs_and_returns(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(0.5)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.processed
        assert p.value == "done"
        assert sim.now == 1.5

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_receives_event_values(self, sim):
        def proc():
            v = yield sim.timeout(1.0, value="tick")
            return v

        p = sim.process(proc())
        sim.run()
        assert p.value == "tick"

    def test_process_composes(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 7

        def parent():
            v = yield sim.process(child())
            return v * 2

        p = sim.process(parent())
        sim.run()
        assert p.value == 14
        assert sim.now == 2.0

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield 42

        p = sim.process(proc())
        sim.run()
        assert p.triggered and not p.ok
        assert isinstance(p.value, TypeError)

    def test_exception_propagates_to_parent(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child broke")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught child broke"

    def test_uncaught_exception_fails_process(self, sim):
        def proc():
            yield sim.timeout(0.1)
            raise KeyError("oops")

        p = sim.process(proc())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, KeyError)

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_already_processed_event_continues_synchronously(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()

        def proc():
            v = yield ev
            return v

        p = sim.process(proc())
        sim.run()
        assert p.value == "early"


class TestSimulatorRun:
    def test_run_until_time(self, sim):
        ticks = []

        def proc():
            while True:
                yield sim.timeout(1.0)
                ticks.append(sim.now)

        sim.process(proc())
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.now == 3.5

    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(2.0)
            return 99

        p = sim.process(proc())
        sim.timeout(1000.0)  # later noise
        v = sim.run(until_event=p)
        assert v == 99
        assert sim.now == 2.0

    def test_run_until_failed_event_raises(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("bad")

        p = sim.process(proc())
        with pytest.raises(RuntimeError):
            sim.run(until_event=p)

    def test_run_until_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=2.0)

    def test_call_at_and_call_in(self, sim):
        seen = []
        sim.call_at(2.0, seen.append, "at")
        sim.call_in(1.0, seen.append, "in")
        sim.run()
        assert seen == ["in", "at"]

    def test_stop_from_callback(self, sim):
        sim.call_in(1.0, sim.stop, "halted")
        sim.timeout(10.0)
        v = sim.run()
        assert v == "halted"
        assert sim.now == 1.0

    def test_determinism_same_seed(self):
        def run_once(seed):
            s = Simulator(seed=seed)
            rng = s.random.stream("x")
            out = []

            def proc():
                for _ in range(10):
                    yield s.timeout(rng.random())
                    out.append(s.now)

            s.process(proc())
            s.run()
            return out

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)


class TestSpawn:
    """``sim.spawn`` starts background work whose raise fails the run;
    a ``sim.process`` failure stays on its own event."""

    @staticmethod
    def _failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("loop broke")

    def test_failed_process_does_not_fail_the_run(self, sim):
        p = sim.process(self._failing(sim))
        sim.timeout(5.0)
        sim.run()
        assert not p.ok and isinstance(p.value, RuntimeError)
        assert sim.now == 5.0

    def test_failed_spawn_fails_the_run(self, sim):
        sim.spawn(self._failing(sim))
        sim.timeout(5.0)
        with pytest.raises(RuntimeError, match="loop broke"):
            sim.run()
        assert sim.now == 1.0

    def test_failed_spawn_fails_a_step(self, sim):
        sim.spawn(self._failing(sim))
        with pytest.raises(RuntimeError, match="loop broke"):
            for _ in range(10):
                sim.step()

    def test_spawn_returns_value_and_composes(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return 7

        def waiter():
            v = yield sim.spawn(worker())
            return v * 2

        assert sim.run(until_event=sim.process(waiter())) == 14
