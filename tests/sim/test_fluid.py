"""Unit tests for the fluid scheduler (CPU/NIC/IOPS rate model)."""

import math
import os
import subprocess
import sys

import pytest

from repro.sim import FluidScheduler, Simulator, UnboundResource


@pytest.fixture
def sim():
    return Simulator()


def cpu(sim, cores=4.0):
    return FluidScheduler(sim, cores, name="cpu")


class TestSingleItem:
    def test_full_rate_completion_time(self, sim):
        sched = cpu(sim, cores=2.0)
        item = sched.submit(work=4.0, demand=2.0)
        sim.run(until_event=item)
        assert sim.now == pytest.approx(2.0)
        assert item.finished_at == pytest.approx(2.0)

    def test_demand_caps_rate(self, sim):
        sched = cpu(sim, cores=8.0)
        item = sched.submit(work=2.0, demand=1.0)  # one thread
        assert item.rate == pytest.approx(1.0)
        sim.run(until_event=item)
        assert sim.now == pytest.approx(2.0)

    def test_zero_work_completes_immediately(self, sim):
        sched = cpu(sim)
        item = sched.submit(work=0.0)
        assert item.triggered
        assert not item.active

    def test_negative_work_rejected(self, sim):
        with pytest.raises(ValueError):
            cpu(sim).submit(work=-1.0)

    def test_nonpositive_demand_rejected(self, sim):
        with pytest.raises(ValueError):
            cpu(sim).submit(work=1.0, demand=0.0)


class TestFairSharing:
    def test_equal_items_share_equally(self, sim):
        sched = cpu(sim, cores=2.0)
        a = sched.submit(work=2.0, demand=2.0)
        b = sched.submit(work=2.0, demand=2.0)
        assert a.rate == pytest.approx(1.0)
        assert b.rate == pytest.approx(1.0)
        sim.run()
        assert a.finished_at == pytest.approx(2.0)
        assert b.finished_at == pytest.approx(2.0)

    def test_water_filling_respects_small_demands(self, sim):
        sched = cpu(sim, cores=10.0)
        small = sched.submit(work=100.0, demand=1.0)
        big = sched.submit(work=100.0, demand=20.0)
        assert small.rate == pytest.approx(1.0)
        assert big.rate == pytest.approx(9.0)

    def test_rates_rebalance_on_completion(self, sim):
        sched = cpu(sim, cores=2.0)
        short = sched.submit(work=1.0, demand=2.0)
        long = sched.submit(work=3.0, demand=2.0)
        # both at 1.0 until short finishes at t=1, then long at 2.0
        sim.run(until_event=short)
        assert sim.now == pytest.approx(1.0)
        sim.run(until_event=long)
        # long did 1 unit by t=1, then 2 more at rate 2 -> t=2
        assert sim.now == pytest.approx(2.0)

    def test_load_never_exceeds_capacity(self, sim):
        sched = cpu(sim, cores=3.0)
        for i in range(10):
            sched.submit(work=5.0, demand=1.0)
        assert sched.load == pytest.approx(3.0)


class TestPriorities:
    def test_high_priority_preempts(self, sim):
        sched = cpu(sim, cores=2.0)
        low = sched.submit(work=4.0, demand=2.0, priority=2)
        assert low.rate == pytest.approx(2.0)
        hi = sched.submit(work=2.0, demand=2.0, priority=0)
        assert hi.rate == pytest.approx(2.0)
        assert low.rate == pytest.approx(0.0)
        assert low.starved
        sim.run(until_event=hi)
        assert sim.now == pytest.approx(1.0)
        assert low.rate == pytest.approx(2.0)

    def test_leftover_flows_to_lower_priority(self, sim):
        sched = cpu(sim, cores=4.0)
        hi = sched.submit(work=100.0, demand=1.0, priority=0)
        low = sched.submit(work=100.0, demand=4.0, priority=1)
        assert hi.rate == pytest.approx(1.0)
        assert low.rate == pytest.approx(3.0)

    def test_preempted_work_is_preserved(self, sim):
        sched = cpu(sim, cores=1.0)
        low = sched.submit(work=2.0, demand=1.0, priority=2)
        sim.run(until=1.0)  # low has done 1.0 of 2.0
        hold = sched.hold(demand=1.0, priority=0)
        sim.run(until=5.0)  # starved for 4s
        sched.cancel(hold)
        sim.run(until_event=low)
        assert sim.now == pytest.approx(6.0)

    def test_queueing_delay_signal(self, sim):
        sched = cpu(sim, cores=1.0)
        sched.hold(demand=1.0, priority=0)
        low = sched.submit(work=1.0, demand=1.0, priority=1)
        sim.run(until=0.003)
        assert low.starved
        assert low.queueing_delay(sim.now) == pytest.approx(0.003)


class TestHoldAndDetach:
    def test_hold_never_completes(self, sim):
        sched = cpu(sim)
        h = sched.hold(demand=1.0)
        sim.run(until=100.0)
        assert not h.triggered
        assert h.remaining is math.inf

    def test_detach_preserves_remaining(self, sim):
        sched = cpu(sim, cores=1.0)
        item = sched.submit(work=3.0, demand=1.0)
        sim.run(until=1.0)
        remaining = sched.detach(item)
        assert remaining == pytest.approx(2.0)
        assert not item.active
        sim.run(until=10.0)  # no progress while detached
        other = cpu(sim, cores=2.0)
        other.attach(item)
        sim.run(until_event=item)
        assert sim.now == pytest.approx(12.0)  # 2.0 work at demand 1.0

    def test_detach_unknown_item_raises(self, sim):
        a, b = cpu(sim), cpu(sim)
        item = a.submit(work=1.0)
        with pytest.raises(UnboundResource):
            b.detach(item)

    def test_attach_completed_item_raises(self, sim):
        sched = cpu(sim)
        item = sched.submit(work=0.5, demand=1.0)
        sim.run(until_event=item)
        with pytest.raises(UnboundResource):
            sched.attach(item)

    def test_cancelled_timer_does_not_complete_item(self, sim):
        sched = cpu(sim, cores=1.0)
        item = sched.submit(work=1.0, demand=1.0)
        sim.run(until=0.5)
        sched.cancel(item)
        sim.run(until=10.0)
        assert not item.triggered


class TestCapacityChange:
    def test_capacity_increase_speeds_completion(self, sim):
        sched = cpu(sim, cores=1.0)
        item = sched.submit(work=4.0, demand=4.0)
        sim.run(until=1.0)
        sched.set_capacity(3.0)
        sim.run(until_event=item)
        assert sim.now == pytest.approx(2.0)  # 1 + 3/3

    def test_capacity_zero_starves_all(self, sim):
        sched = cpu(sim, cores=2.0)
        item = sched.submit(work=1.0, demand=1.0)
        sched.set_capacity(0.0)
        sim.run(until=10.0)
        assert not item.triggered
        assert item.starved


class TestAccounting:
    def test_served_integral_tracks_work(self, sim):
        sched = cpu(sim, cores=2.0)
        sched.submit(work=3.0, demand=2.0)
        sim.run(until=5.0)
        assert sched.utilization_since(0.0, 0.0) == pytest.approx(0.3)

    def test_per_priority_accounting(self, sim):
        sched = cpu(sim, cores=2.0)
        sched.submit(work=2.0, demand=1.0, priority=0)
        sched.submit(work=2.0, demand=1.0, priority=1)
        sim.run(until=2.0)
        sched._settle()
        assert sched.served_by_priority[0] == pytest.approx(2.0)
        assert sched.served_by_priority[1] == pytest.approx(2.0)

    def test_free_capacity_respects_priority(self, sim):
        sched = cpu(sim, cores=4.0)
        sched.hold(demand=1.0, priority=0)
        sched.hold(demand=2.0, priority=1)
        # a new priority-0 item sees everything but the prio-0 hold
        assert sched.free_capacity(priority=0) == pytest.approx(3.0)
        # a new priority-1 (or lower) item sees 4 - 1 - 2
        assert sched.free_capacity(priority=1) == pytest.approx(1.0)
        assert sched.free_capacity(priority=2) == pytest.approx(1.0)

    def test_observer_called_on_reassign(self, sim):
        sched = cpu(sim)
        calls = []
        sched.add_observer(lambda s: calls.append(sim.now))
        sched.submit(work=1.0)
        assert calls


class TestManyItems:
    def test_fifo_completion_of_identical_items(self, sim):
        sched = cpu(sim, cores=1.0)
        items = [sched.submit(work=1.0, demand=1.0) for _ in range(5)]
        sim.run()
        # processor sharing: all finish simultaneously at t=5
        for it in items:
            assert it.finished_at == pytest.approx(5.0)

    def test_mass_conservation(self, sim):
        """Total served work equals total submitted work."""
        sched = cpu(sim, cores=3.0)
        rng = sim.random.stream("t")
        total = 0.0
        for i in range(50):
            w = 0.1 + rng.random()
            total += w
            sched.submit(work=w, demand=1.0 + rng.random() * 3)
        sim.run()
        sched._settle()
        assert sched.served_integral == pytest.approx(total, rel=1e-6)


class TestFailAll:
    def test_fail_all_propagates_to_blocked_items(self, sim):
        sched = cpu(sim)
        item = sched.submit(work=10.0)
        sched.fail_all(RuntimeError("machine died"))
        assert item.triggered
        assert not item.ok
        assert not sched.items

    def test_fail_all_on_empty_scheduler_is_noop(self, sim):
        sched = cpu(sim)
        calls = []
        sched.add_observer(lambda s: calls.append(sim.now))
        sched.fail_all(RuntimeError("machine died"))
        assert calls == []          # no reassignment, no observer churn
        assert sched.load == 0.0
        # the scheduler is still usable afterwards
        item = sched.submit(work=1.0, demand=1.0)
        sim.run(until_event=item)
        assert item.ok


class TestCoalescedReassignment:
    """A burst of same-instant mutations costs one water-fill, and the
    deferral is invisible: reads always see fresh rates."""

    def test_burst_in_process_coalesces_observer_calls(self, sim):
        sched = cpu(sim, cores=4.0)
        calls = []
        sched.add_observer(lambda s: calls.append(sim.now))

        def burst():
            for _ in range(10):
                sched.submit(work=1.0, demand=1.0)
            yield sim.timeout(0.1)

        sim.process(burst())
        sim.run()
        # 10 submits at t=0 -> one coalesced reassignment, not ten.
        assert calls.count(0.0) == 1

    def test_read_inside_burst_sees_fresh_rates(self, sim):
        sched = cpu(sim, cores=2.0)
        seen = []

        def burst():
            a = sched.submit(work=5.0, demand=2.0)
            b = sched.submit(work=5.0, demand=2.0)
            seen.append((a.rate, b.rate, sched.load))
            yield sim.timeout(0.01)

        sim.process(burst())
        sim.run(until=0.01)
        assert seen == [(1.0, 1.0, 2.0)]

    def test_submit_cancel_same_instant_leaves_no_trace(self, sim):
        sched = cpu(sim, cores=2.0)
        keeper = sched.submit(work=2.0, demand=2.0)

        def churn():
            for _ in range(20):
                it = sched.submit(work=100.0, demand=2.0)
                sched.cancel(it)
            yield sim.timeout(0.0)

        sim.process(churn())
        sim.run(until_event=keeper)
        # the cancelled flock never absorbed capacity for finite time
        assert sim.now == pytest.approx(1.0)

    def test_free_capacity_is_fresh_after_mutation(self, sim):
        sched = cpu(sim, cores=4.0)

        def probe():
            sched.hold(demand=1.0, priority=0)
            yield sim.timeout(0.0)

        sim.process(probe())
        sim.run(until=0.0)
        assert sched.free_capacity(priority=1) == pytest.approx(3.0)
        assert sched.free_capacity(priority=0) == pytest.approx(3.0)


class TestWaterFillDeterminism:
    """Rates depend on (demand, priority), never on submission order."""

    def _submit_all(self, spec):
        sim = Simulator()
        sched = cpu(sim, cores=3.0)
        items = {name: sched.submit(work=w, demand=d, name=name)
                 for name, w, d in spec}
        return sim, items

    def test_distinct_demands_are_order_invariant_bitwise(self):
        spec = [("a", 4.0, 0.5), ("b", 4.0, 1.25), ("c", 4.0, 2.5)]
        orders = [spec, spec[::-1], [spec[1], spec[2], spec[0]]]
        rates, finishes = [], []
        for order in orders:
            sim, items = self._submit_all(order)
            rates.append({n: it.rate for n, it in items.items()})
            sim.run()
            finishes.append({n: it.finished_at for n, it in items.items()})
        # Distinct demands pin each item's position in the sorted
        # water-fill, so rate vectors and completion times are
        # *bit-identical* across submission orders.
        assert rates[0] == rates[1] == rates[2]
        assert finishes[0] == finishes[1] == finishes[2]

    def test_equal_demands_complete_together_in_any_order(self):
        runs = []
        for names in (("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a")):
            sim = Simulator()
            sched = cpu(sim, cores=2.0)
            items = [sched.submit(work=3.0, demand=1.5, name=n)
                     for n in names]
            rate_vec = sorted(it.rate for it in items)
            sim.run()
            fins = {it.finished_at for it in items}
            assert len(fins) == 1, "equal peers must finish simultaneously"
            runs.append((rate_vec, fins.pop()))
        ref_rates, ref_finish = runs[0]
        for rate_vec, finish in runs[1:]:
            assert rate_vec == pytest.approx(ref_rates, rel=1e-12)
            assert finish == pytest.approx(ref_finish, rel=1e-12)


def test_core_import_does_not_pull_numpy():
    """The core library keeps its no-numpy invariant: importing repro
    and driving the fluid scheduler must not import numpy."""
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.sim import FluidScheduler, Simulator\n"
        "s = FluidScheduler(Simulator(), 4.0)\n"
        "s.hold(demand=1.0)\n"
        "s.sync()\n"
        "assert 'numpy' not in sys.modules, 'numpy leaked into core import'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
