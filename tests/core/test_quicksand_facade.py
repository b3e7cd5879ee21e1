"""Tests for the Quicksand facade: placement, split/merge primitives.

Memory shards split and merge only through the sharded structures'
two-phase protocol, so those tests drive it through a sharded map."""

import pytest

from repro import (
    ClusterSpec,
    MachineSpec,
    ProcletStatus,
    Quicksand,
    QuicksandConfig,
    Task,
)
from repro.runtime.errors import InvalidPlacement
from repro.units import GiB, KiB, MiB

from ..conftest import gpu_machine, make_qs, storage_machine


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class TestPlacement:
    def test_memory_proclet_goes_to_most_free_dram(self):
        qs = make_qs(machines=[
            MachineSpec(name="small", cores=8, dram_bytes=1 * GiB),
            MachineSpec(name="big", cores=8, dram_bytes=8 * GiB),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        ref = qs.spawn_memory()
        assert ref.machine.name == "big"

    def test_compute_proclet_goes_to_most_free_cpu(self):
        qs = make_qs(machines=[
            MachineSpec(name="weak", cores=2, dram_bytes=4 * GiB),
            MachineSpec(name="beefy", cores=40, dram_bytes=4 * GiB),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        ref = qs.spawn_compute()
        assert ref.machine.name == "beefy"

    def test_compute_fallback_when_all_busy(self, qs):
        from repro.cluster import Priority

        for m in qs.machines:
            m.cpu.hold(threads=m.cpu.cores, priority=Priority.HIGH)
        ref = qs.spawn_compute()  # falls back to least-loaded
        assert ref.machine in qs.machines

    def test_gpu_proclet_requires_gpus(self, qs):
        with pytest.raises(InvalidPlacement):
            qs.spawn_gpu()

    def test_gpu_proclet_goes_to_gpu_machine(self):
        qs = make_qs(machines=[
            MachineSpec(name="cpuonly", cores=8, dram_bytes=4 * GiB),
            gpu_machine(name="gpubox"),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        ref = qs.spawn_gpu()
        assert ref.machine.name == "gpubox"

    def test_storage_proclet_requires_device(self, qs):
        with pytest.raises(InvalidPlacement):
            qs.spawn_storage()

    def test_explicit_machine_overrides_policy(self, qs):
        m0 = qs.machines[0]
        ref = qs.spawn_memory(machine=m0)
        assert ref.machine is m0


def _map_shard(qs, n=16, size=1 * MiB, machine=None):
    """A one-shard sharded map holding keys ``0..n-1``; memory shards
    split and merge only through the map's two-phase protocol."""
    m = qs.sharded_map(name="kv", initial_machine=machine)
    for k in range(n):
        qs.sim.run(until_event=m.put(k, f"v{k}", size))
    return m, m.shards[0].ref


def _place_children_on(qs, machine):
    qs.placement.best_for_memory = lambda *a, **k: machine


class TestSplitMemory:
    def test_split_halves_bytes(self, qs):
        m, ref = _map_shard(qs, n=16)
        result = qs.sim.run(until_event=m.reshard_split_by_id(
            ref.proclet_id))
        split_key, new_ref = result
        assert ref.proclet.heap_bytes == pytest.approx(8 * MiB)
        assert new_ref.proclet.heap_bytes == pytest.approx(8 * MiB)
        assert split_key == 8
        assert qs.splits == 1

    def test_split_preserves_all_objects(self, qs):
        m, ref = _map_shard(qs, n=10)
        _key, new_ref = qs.sim.run(until_event=m.reshard_split_by_id(
            ref.proclet_id))
        total = ref.proclet.object_count + new_ref.proclet.object_count
        assert total == 10
        # and every key readable from the right shard
        for k in range(10):
            target = new_ref if k >= _key else ref
            v = qs.sim.run(until_event=target.call("mp_get", k))
            assert v == f"v{k}"

    def test_split_blocks_invocations_until_done(self, qs):
        m, ref = _map_shard(qs, n=64, size=1 * MiB, machine=qs.machines[0])
        # Force the new half to the other machine so the transfer is slow
        # enough to observe the gate.
        _place_children_on(qs, qs.machines[1])
        split_ev = m.reshard_split_by_id(ref.proclet_id)
        qs.sim.run(until=qs.sim.now + 150e-6)  # inside the split window
        assert ref.proclet.status is ProcletStatus.MIGRATING
        read = ref.call("mp_get", 0)
        assert not read.triggered
        qs.sim.run(until_event=split_ev)
        qs.sim.run(until_event=read)  # unblocked after split

    def test_split_too_small_returns_none(self, qs):
        m, ref = _map_shard(qs, n=1, size=10)
        assert qs.sim.run(until_event=m.reshard_split_by_id(
            ref.proclet_id)) is None

    def test_split_in_place_when_cluster_is_tight(self):
        """With one nearly-full machine the split still succeeds locally:
        re-granularization does not need new DRAM for the data itself."""
        qs = make_qs(machines=[
            MachineSpec(name="only", cores=4, dram_bytes=1 * GiB),
        ], enable_local_scheduler=False, enable_global_scheduler=False,
            enable_split_merge=False)
        m, ref = _map_shard(qs, n=8, size=64 * MiB)
        machine = qs.machines[0]
        machine.memory.reserve(machine.memory.free - 1 * MiB)
        split_key, new_ref = qs.sim.run(until_event=m.reshard_split_by_id(
            ref.proclet_id))
        assert new_ref.machine is machine
        assert ref.proclet.object_count + new_ref.proclet.object_count == 8

    def test_split_to_full_destination_undoes(self, qs):
        m, ref = _map_shard(qs, n=8, machine=qs.machines[0])
        m1 = qs.machines[1]
        m1.memory.reserve(m1.memory.free - 1 * KiB)
        _place_children_on(qs, m1)
        result = qs.sim.run(until_event=m.reshard_split_by_id(
            ref.proclet_id))
        assert result is None
        assert ref.proclet.object_count == 8
        assert ref.proclet.status is ProcletStatus.RUNNING
        assert m.shard_count == 1


class TestMergeMemory:
    def _two_shards(self, qs, size):
        """Keys 0..3 on m0, keys 4..7 on m1."""
        m, left = _map_shard(qs, n=8, size=size, machine=qs.machines[0])
        _place_children_on(qs, qs.machines[1])
        qs.sim.run(until_event=m.reshard_split_by_id(left.proclet_id))
        assert [s.ref.machine for s in m.shards] == qs.machines
        return m, left, m.shards[1].ref

    def test_merge_moves_objects_and_destroys_source(self, qs):
        m, a, b = self._two_shards(qs, 100 * KiB)
        ok = qs.sim.run(until_event=m.reshard_merge_by_id(b.proclet_id))
        assert ok is True
        assert a.proclet.object_count == 8
        assert qs.merges == 1
        from repro.runtime import DeadProclet

        with pytest.raises(DeadProclet):
            qs.sim.run(until_event=b.call("mp_get", 4))

    def test_merge_declined_when_destination_full(self, qs):
        m, a, b = self._two_shards(qs, 25 * MiB)
        m0 = qs.machines[0]
        m0.memory.reserve(m0.memory.free - 1 * MiB)
        result = qs.sim.run(until_event=m.reshard_merge_by_id(b.proclet_id))
        assert result is None
        assert b.proclet.object_count == 4
        assert m.shard_count == 2


def _grown(qs, pool):
    """Step until every split the pool started has finished."""
    while pool.size < pool.effective_size:
        qs.sim.step()


class TestSplitCompute:
    def test_split_divides_queue(self, qs):
        pool = qs.compute_pool(parallelism=1, machine=qs.machines[0])
        events = [pool.submit(Task(work=0.05, key=i)) for i in range(9)]
        qs.sim.run(until=0.01)
        assert pool.grow(1) == 1
        _grown(qs, pool)
        ref, new_ref = pool.members
        assert new_ref.machine is qs.machines[1]
        assert new_ref.proclet.queue_length + ref.proclet.queue_length \
            + ref.proclet.busy_workers + new_ref.proclet.busy_workers == 9 - ref.proclet.tasks_done
        # all tasks still complete exactly once
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert ref.proclet.tasks_done + new_ref.proclet.tasks_done == 9

    def test_split_finishes_faster_than_serial(self, qs):
        pool = qs.compute_pool(parallelism=1, machine=qs.machines[0])
        events = [pool.submit(Task(work=0.1, key=i)) for i in range(8)]
        qs.sim.run(until=0.01)
        assert pool.grow(1) == 1
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert qs.sim.now < 0.55  # serial would be 0.8s

    def test_split_denied_without_cpu_headroom(self, qs):
        from repro.cluster import Priority

        pool = qs.compute_pool()
        for m in qs.machines:
            m.cpu.hold(threads=m.cpu.cores, priority=Priority.HIGH)
        assert pool.grow(1) == 0
        assert pool.effective_size == 1
        assert qs.splits == 0


class TestMergeCompute:
    def test_merge_transfers_queue_and_destroys(self, qs):
        pool = qs.compute_pool(parallelism=1, initial_members=2)
        a, b = pool.members
        assert (a.machine, b.machine) == tuple(qs.machines)
        events = []
        for i in range(6):
            t = Task(work=0.02, key=i, done=qs.sim.event())
            b.call("cp_submit", t)
            events.append(t.done)
        qs.sim.run(until=0.005)
        assert pool.shrink(1) == 1
        assert pool.members == [a]
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert a.proclet.tasks_done + 1 >= 6 - 1  # b finished its in-flight
        assert qs.merges == 1
        assert qs.runtime._proclets.get(b.proclet_id) is None


class TestFacadeMisc:
    def test_repr(self, qs):
        assert "Quicksand" in repr(qs)

    def test_machine_lookup(self, qs):
        assert qs.machine("m0") is qs.machines[0]

    def test_storage_machines_listed(self):
        qs = make_qs(machines=[storage_machine()],
                     enable_local_scheduler=False,
                     enable_global_scheduler=False,
                     enable_split_merge=False)
        assert len(qs.placement.storage_machines()) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuicksandConfig(max_shard_bytes=1.0, min_shard_bytes=2.0)
        with pytest.raises(ValueError):
            QuicksandConfig(memory_watermark=0.0)
        with pytest.raises(ValueError):
            QuicksandConfig(autoscale_period=0.0)
