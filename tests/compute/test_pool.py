"""Tests for the distributed thread pool (ComputePool)."""

import pytest

from repro import ProcletStatus, Task
from repro.cluster import Priority
from repro.units import MS, US

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class TestSubmission:
    def test_run_simple_work(self, qs):
        pool = qs.compute_pool(name="p")
        done = pool.run(0.01)
        qs.sim.run(until_event=done)
        assert pool.total_done == 1

    def test_submit_fn(self, qs):
        pool = qs.compute_pool()
        seen = []

        def fn(ctx, task):
            yield ctx.cpu(0.001)
            seen.append(task.key)
            return "ok"

        result = qs.sim.run(until_event=pool.submit_fn(fn, key="job"))
        assert result == "ok"
        assert seen == ["job"]

    def test_tasks_balance_across_members(self, qs):
        pool = qs.compute_pool(initial_members=2, parallelism=1)
        for _ in range(10):
            pool.run(1.0)
        qs.sim.run(until=0.01)
        queues = [ref.proclet.queue_length for ref in pool.members]
        assert abs(queues[0] - queues[1]) <= 1

    def test_validation(self, qs):
        with pytest.raises(ValueError):
            qs.compute_pool(initial_members=0)


class TestGrowShrink:
    def test_grow_adds_member_on_idle_machine(self, qs):
        pool = qs.compute_pool(initial_members=1, parallelism=4)
        for _ in range(20):
            pool.run(1.0)
        qs.sim.run(until=5 * MS)
        assert pool.grow(1) == 1
        assert pool.effective_size == 2
        qs.sim.run(until=qs.sim.now + 10 * MS)
        assert pool.size == 2
        machines = {ref.machine.name for ref in pool.members}
        assert len(machines) == 2  # placed apart

    def test_grow_denied_when_no_cpu(self, qs):
        for m in qs.machines:
            m.cpu.hold(threads=m.cpu.cores, priority=Priority.HIGH)
        pool = qs.compute_pool(initial_members=1)
        assert pool.grow(1) == 0
        assert pool.effective_size == 1

    def test_shrink_merges_and_keeps_completing(self, qs):
        pool = qs.compute_pool(initial_members=2, parallelism=1)
        events = [pool.run(0.02) for _ in range(10)]
        qs.sim.run(until=5 * MS)
        assert pool.shrink(1) == 1
        assert pool.size == 1
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert pool.total_done == 10

    def test_shrink_never_below_one(self, qs):
        pool = qs.compute_pool(initial_members=2)
        assert pool.shrink(5) == 1
        assert pool.size == 1

    def test_grow_then_work_speeds_up(self, qs):
        """More members -> more throughput (the Fig. 3 lever)."""

        def run_workload(members):
            qs_local = make_qs(enable_local_scheduler=False,
                               enable_global_scheduler=False,
                               enable_split_merge=False)
            pool = qs_local.compute_pool(initial_members=members,
                                         parallelism=2)
            events = [pool.run(0.05) for _ in range(32)]
            qs_local.sim.run(until_event=qs_local.sim.all_of(events))
            return qs_local.sim.now

        slow = run_workload(1)
        fast = run_workload(4)
        assert fast < slow / 2

    def test_stop_all(self, qs):
        pool = qs.compute_pool(initial_members=2)
        done = pool.run(0.01)
        qs.sim.run(until_event=done)
        qs.sim.run(until_event=pool.stop())


class TestShrinkCrash:
    """A machine crashes under a merge: nothing raises out of the run and
    the pool loses no live member.  The pool is ``w0`` on m0 (the
    survivor) and ``w1`` on m1 (the donor), each with five queued tasks;
    a crash 1 us after ``shrink`` lands in the split overhead, one at
    101 us in the task handoff."""

    @staticmethod
    def _pool(qs):
        pool = qs.compute_pool(name="p", initial_members=2, parallelism=1)
        assert [m.name for m in pool.machines()] == ["m0", "m1"]
        for _ in range(12):
            pool.run(1.0)
        qs.run(until=1 * MS)
        assert [r.proclet.queue_length for r in pool.members] == [5, 5]
        return pool

    @staticmethod
    def _merges(qs):
        return int(qs.metrics.counter("quicksand.merges.compute").total)

    @pytest.mark.parametrize("delay", [1 * US, 101 * US])
    def test_survivor_crash_keeps_the_donor(self, qs, delay):
        pool = self._pool(qs)
        survivor, donor = pool.members
        assert pool.shrink(1) == 1
        assert pool.members == [survivor]
        qs.run(until=qs.sim.now + delay)
        qs.runtime.fail_machine(qs.machine("m0"))
        qs.run(until=qs.sim.now + 10 * MS)
        assert pool.members == [survivor, donor]
        assert donor.proclet.status is ProcletStatus.RUNNING
        assert donor.proclet.queue_length == 5  # kept or handed back
        assert self._merges(qs) == 0 and qs.merges == 0
        # Its workers still run: the queued tasks complete.
        done = pool.total_done
        qs.run(until=qs.sim.now + 6.0)
        assert pool.total_done == done + 6
        assert donor.proclet.queue_length == 0

    @pytest.mark.parametrize("delay", [1 * US, 101 * US])
    def test_donor_crash_leaves_the_survivor(self, qs, delay):
        pool = self._pool(qs)
        survivor, donor = pool.members
        assert pool.shrink(1) == 1
        qs.run(until=qs.sim.now + delay)
        qs.runtime.fail_machine(qs.machine("m1"))
        qs.run(until=qs.sim.now + 10 * MS)
        # Fail-stop: the donor's tasks died with it.
        assert pool.members == [survivor]
        assert survivor.proclet.queue_length == 5
        assert self._merges(qs) == 0

    @pytest.mark.parametrize("endpoint", [0, 1])
    def test_declined_merge_keeps_the_donor(self, qs, endpoint):
        pool = self._pool(qs)
        survivor, donor = pool.members
        gated = pool.members[endpoint].proclet
        # Not RUNNING when the merge starts.
        qs.runtime.gate(gated, "compute.split")
        assert pool.shrink(1) == 1
        qs.run(until=qs.sim.now + 10 * MS)
        assert pool.members == [survivor, donor]
        assert donor.proclet.queue_length == 5
        qs.runtime.ungate(gated)
        qs.run(until=qs.sim.now + 6.0)
        assert pool.total_done == 12

    def test_merge_after_a_crash_declines(self, qs):
        pool = self._pool(qs)
        survivor, donor = pool.members
        qs.runtime.fail_machine(qs.machine("m0"))
        assert pool.shrink(1) == 1
        qs.run(until=qs.sim.now + 10 * MS)
        assert pool.members == [survivor, donor]
        assert pool.heal() == 1  # the dead survivor is replaced
        assert donor in pool.members and pool.size == 2

    def test_merge_moves_tasks_and_destroys_the_donor(self, qs):
        pool = self._pool(qs)
        survivor, donor = pool.members
        assert pool.shrink(1) == 1
        qs.run(until=qs.sim.now + 10 * MS)
        assert pool.members == [survivor]
        assert survivor.proclet.queue_length == 10
        # The donor is destroyed once its in-flight task is done.
        qs.run(until=qs.sim.now + 1.0)
        assert qs.runtime._proclets.get(donor.proclet_id) is None
        assert self._merges(qs) == 1 and qs.merges == 1
        qs.run(until=qs.sim.now + 11.0)
        assert pool.total_done == 12


class TestDeadMember:
    def test_grow_and_backlog_skip_a_member_lost_to_a_crash(self, qs):
        pool = qs.compute_pool(name="p", initial_members=2, parallelism=1)
        for _ in range(6):
            pool.run(1.0)
        qs.run(until=1 * MS)
        qs.runtime.fail_machine(qs.machine("m1"))
        assert pool.backlog == 2  # w0's queue; w1's died with m1
        assert "members=2" in repr(pool)
        assert pool.grow(2) == 1  # only the live member seeds a split
        qs.run(until=qs.sim.now + 10 * MS)
        assert pool.size == 3
        assert pool.heal() == 1 and pool.size == 3
