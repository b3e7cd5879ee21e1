"""Tests for the two-level scheduler: local reactions + global rebalance."""

import pytest

from repro import MachineSpec, Task
from repro.cluster import Priority
from repro.core.scheduler import AffinityTracker, PlacementPolicy
from repro.units import GiB, MS, MiB

from ..conftest import make_qs


class TestPlacementPolicy:
    def test_best_for_memory_excludes(self, qs_quiet):
        policy = qs_quiet.placement
        m0, m1 = qs_quiet.machines
        assert policy.best_for_memory(1 * MiB, exclude=(m0,)) is m1

    def test_best_for_memory_none_when_too_big(self, qs_quiet):
        assert qs_quiet.placement.best_for_memory(100 * GiB) is None

    def test_best_for_compute_prefers_idle(self, qs_quiet):
        m0, m1 = qs_quiet.machines
        m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        assert qs_quiet.placement.best_for_compute() is m1

    def test_best_for_compute_none_when_all_busy(self, qs_quiet):
        for m in qs_quiet.machines:
            m.cpu.hold(threads=m.cpu.cores, priority=Priority.HIGH)
        assert qs_quiet.placement.best_for_compute() is None

    def test_total_free_cores(self, qs_quiet):
        assert qs_quiet.placement.total_free_cores() == pytest.approx(16.0)


class TestLocalStarvationReaction:
    def test_starved_compute_proclet_migrates_quickly(self):
        """The Fig. 1 mechanism: a HIGH burst evicts NORMAL proclets."""
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0, m1 = qs.machines
        ref = qs.spawn_compute(parallelism=2, machine=m0)
        # keep it busy forever
        for _ in range(4):
            t = Task(work=100.0, done=qs.sim.event())
            ref.call("cp_submit", t)
        qs.sim.run(until=5 * MS)
        assert ref.machine is m0

        m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        burst_at = qs.sim.now
        qs.sim.run(until=burst_at + 5 * MS)
        assert ref.machine is m1, "proclet should flee the HIGH burst"
        lat = qs.metrics.samples("runtime.migration.latency")
        assert lat and lat[0] < 1 * MS

    def test_no_migration_without_starvation(self):
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        ref = qs.spawn_compute(machine=qs.machines[0])
        t = Task(work=0.05, done=qs.sim.event())
        ref.call("cp_submit", t)
        qs.sim.run(until=0.1)
        assert ref.proclet.migrations == 0

    def test_no_flight_when_everywhere_is_busy(self):
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0, m1 = qs.machines
        ref = qs.spawn_compute(machine=m0)
        t = Task(work=100.0, done=qs.sim.event())
        ref.call("cp_submit", t)
        qs.sim.run(until=2 * MS)
        m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        m1.cpu.hold(threads=8.0, priority=Priority.HIGH)
        qs.sim.run(until=20 * MS)
        assert ref.machine is m0  # nowhere better to go

    def test_starved_proclet_migrates_when_all_else_is_served(self):
        """One starved item among served ones: the cached starved count
        is exactly 1, so the reaction still scans and the proclet
        flees."""
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0, m1 = qs.machines
        ref = qs.spawn_compute(machine=m0)
        ref.call("cp_submit", Task(work=100.0, done=qs.sim.event()))
        qs.sim.run(until=2 * MS)
        sched = m0.cpu.sched
        assert sched.starved_count == 0
        m0.cpu.hold(threads=4.0, priority=Priority.HIGH)
        m0.cpu.hold(threads=4.0, priority=Priority.HIGH)
        assert sched.starved_count == 1
        assert [it.starved for it in sched.items] == [True, False, False]
        qs.sim.run(until=qs.sim.now + 5 * MS)
        assert ref.machine is m1
        assert ref.proclet.migrations == 1
        assert qs.local_schedulers[0].starvation.empty

    def test_starvation_relieved_inside_patience_does_not_migrate(self):
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0, _ = qs.machines
        local = qs.local_schedulers[0]
        ref = qs.spawn_compute(machine=m0)
        ref.call("cp_submit", Task(work=100.0, done=qs.sim.event()))
        qs.sim.run(until=2 * MS)
        burst = m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        qs.sim.run(until=qs.sim.now + qs.config.starvation_patience / 4)
        assert local.starvation.is_starving_now(ref.proclet_id)
        m0.cpu.release(burst)
        qs.sim.run(until=qs.sim.now + 5 * MS)
        assert ref.machine is m0
        assert ref.proclet.migrations == 0
        assert local.migrations_triggered == 0
        assert local.starvation.empty

    @pytest.mark.parametrize("leave", ["destroy", "migrate"])
    def test_proclet_leaving_while_starved_leaves_no_tracker_entry(
            self, leave):
        """Destroyed, or moved by someone other than the local
        scheduler, inside the patience window: the proclet's CPU work
        is gone from this machine, so no reassign here ever observes it
        again and the pending check must stop its clock."""
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0, m1 = qs.machines
        local = qs.local_schedulers[0]
        ref = qs.spawn_compute(machine=m0)
        ref.call("cp_submit", Task(work=100.0, done=qs.sim.event()))
        qs.sim.run(until=5 * MS)
        m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        qs.sim.run(until=qs.sim.now + qs.config.starvation_patience / 4)
        assert not local.starvation.empty
        if leave == "destroy":
            qs.runtime.destroy(ref)
        else:
            qs.sim.run(until_event=qs.runtime.migrate(ref.proclet, m1))
            assert ref.machine is m1
        qs.sim.run(until=qs.sim.now + 5 * MS)
        assert local.migrations_triggered == 0
        assert local.starvation.empty

    def test_migration_cooldown_limits_pingpong(self):
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        m0, m1 = qs.machines
        ref = qs.spawn_compute(machine=m0)
        t = Task(work=100.0, done=qs.sim.event())
        ref.call("cp_submit", t)
        qs.sim.run(until=2 * MS)
        # Starve both alternately very fast; cooldown should bound moves.
        h0 = m0.cpu.hold(threads=8.0, priority=Priority.HIGH)
        qs.sim.run(until=qs.sim.now + 2 * MS)
        h1 = m1.cpu.hold(threads=8.0, priority=Priority.HIGH)
        m0.cpu.release(h0)
        qs.sim.run(until=qs.sim.now + 0.5 * MS)
        m1.cpu.release(h1)
        qs.sim.run(until=qs.sim.now + 5 * MS)
        assert ref.proclet.migrations <= 3


class TestLocalMemoryPressure:
    def test_eviction_on_watermark(self):
        qs = make_qs(machines=[
            MachineSpec(name="small", cores=8, dram_bytes=1 * GiB),
            MachineSpec(name="big", cores=8, dram_bytes=8 * GiB),
        ], enable_global_scheduler=False, enable_split_merge=False)
        small = qs.machine("small")
        victim = qs.spawn_memory(machine=small, name="victim")
        qs.sim.run(
            until_event=victim.call("mp_put", 0, 200 * MiB, None))
        # Push the small machine over its watermark with foreign load.
        small.memory.reserve(small.memory.free - 30 * MiB)
        qs.sim.run(until=qs.sim.now + 20 * MS)
        assert victim.machine.name == "big"
        assert qs.local_schedulers[0].evictions_triggered >= 1

    def test_no_eviction_below_watermark(self):
        qs = make_qs(enable_global_scheduler=False,
                     enable_split_merge=False)
        ref = qs.spawn_memory(machine=qs.machines[0])
        qs.sim.run(until_event=ref.call("mp_put", 0, 100 * MiB, None))
        qs.sim.run(until=0.1)
        assert ref.proclet.migrations == 0


class TestGlobalScheduler:
    def test_cpu_rebalance_spreads_compute(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_split_merge=False,
                     global_interval=10 * MS)
        m0 = qs.machines[0]
        refs = [qs.spawn_compute(parallelism=4, machine=m0)
                for _ in range(4)]  # 16 demanded threads on 8 cores
        for ref in refs:
            for _ in range(8):
                ref.call("cp_submit", Task(work=50.0, done=qs.sim.event()))
        qs.sim.run(until=0.2)
        machines = {ref.machine.name for ref in refs}
        assert machines == {"m0", "m1"}, "global scheduler should spread"
        assert qs.global_scheduler.moves >= 1

    def test_memory_rebalance(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_split_merge=False,
                     global_interval=10 * MS)
        m0 = qs.machines[0]
        shards = [qs.spawn_memory(machine=m0) for _ in range(8)]
        for i, s in enumerate(shards):
            qs.sim.run(until_event=s.call("mp_put", 0, 300 * MiB, None))
        qs.sim.run(until=0.3)
        m1_shards = [s for s in shards if s.machine.name == "m1"]
        assert m1_shards, "memory should rebalance toward the idle machine"

    def test_no_moves_when_balanced(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_split_merge=False,
                     global_interval=10 * MS)
        a = qs.spawn_compute(machine=qs.machines[0])
        b = qs.spawn_compute(machine=qs.machines[1])
        a.call("cp_submit", Task(work=10.0, done=qs.sim.event()))
        b.call("cp_submit", Task(work=10.0, done=qs.sim.event()))
        qs.sim.run(until=0.2)
        assert qs.global_scheduler.moves == 0


class TestAffinity:
    def test_tracker_decay(self):
        from repro.sim import Simulator

        sim = Simulator()
        tracker = AffinityTracker(sim, half_life=0.1)
        tracker.record(1, 2, remote=True)
        assert tracker.weight(1, 2) == pytest.approx(1.0)
        sim.timeout(0.1)
        sim.run()
        assert tracker.weight(1, 2) == pytest.approx(0.5, rel=1e-6)

    def test_local_calls_not_tracked(self):
        from repro.sim import Simulator

        tracker = AffinityTracker(Simulator())
        tracker.record(1, 2, remote=False)
        assert tracker.weight(1, 2) == 0.0
        assert tracker.total_local_calls == 1

    def test_bad_half_life(self):
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            AffinityTracker(Simulator(), half_life=0.0)

    def test_runtime_feeds_affinity(self, qs_quiet):
        qs = qs_quiet
        mem = qs.spawn_memory(machine=qs.machines[0])
        qs.sim.run(until_event=mem.call("mp_put", 0, 1024, "x"))

        from repro import Proclet

        class Chatty(Proclet):
            def chat(self, ctx, target, n):
                for _ in range(n):
                    yield ctx.call(target, "mp_get", 0)

        chatty = qs.spawn(Chatty(), qs.machines[1])
        qs.sim.run(until_event=chatty.call("chat", mem, 20))
        assert qs.affinity.weight(chatty.proclet_id,
                                  mem.proclet_id) > 5.0

    def test_affinity_colocation_by_global_scheduler(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_split_merge=False,
                     global_interval=20 * MS,
                     affinity_threshold=10.0)
        mem = qs.spawn_memory(machine=qs.machines[0])
        qs.sim.run(until_event=mem.call("mp_put", 0, 1024, "x"))

        from repro import Proclet

        class Chatty(Proclet):
            def chat(self, ctx, target, n):
                for _ in range(n):
                    yield ctx.call(target, "mp_get", 0)
                    yield ctx.sleep(0.0005)

        chatty = qs.spawn(Chatty(), qs.machines[1])
        chatty.call("chat", mem, 500)
        qs.sim.run(until=0.15)
        assert chatty.machine is mem.machine, \
            "chatty pair should be colocated"
