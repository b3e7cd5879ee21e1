"""Nested condition edge cases in the kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestNestedConditions:
    def test_all_of_any_ofs(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(5.0, "b")
        c, d = sim.timeout(2.0, "c"), sim.timeout(6.0, "d")
        cond = AllOf(sim, [AnyOf(sim, [a, b]), AnyOf(sim, [c, d])])
        done_at = []
        cond.subscribe(lambda e: done_at.append(sim.now))
        sim.run()
        assert done_at == [2.0]

    def test_any_of_all_ofs(self, sim):
        slow = AllOf(sim, [sim.timeout(5.0), sim.timeout(6.0)])
        fast = AllOf(sim, [sim.timeout(1.0), sim.timeout(2.0)])
        cond = AnyOf(sim, [slow, fast])
        done_at = []
        cond.subscribe(lambda e: done_at.append(sim.now))
        sim.run()
        assert done_at == [2.0]

    def test_any_of_with_pretriggered_child(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        cond = AnyOf(sim, [ev, sim.timeout(10.0)])
        sim.run(until=1.0)
        assert cond.processed

    def test_process_waits_on_condition(self, sim):
        def proc():
            results = yield AllOf(sim, [sim.timeout(1.0, "x"),
                                        sim.timeout(2.0, "y")])
            return sorted(results.values())

        p = sim.process(proc())
        assert sim.run(until_event=p) == ["x", "y"]
