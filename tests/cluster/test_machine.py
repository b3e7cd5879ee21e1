"""Unit tests for machine components: CPU, memory, NIC, GPU, storage."""

import pytest

from repro.cluster import (
    Cluster,
    GpuSpec,
    MachineSpec,
    OutOfMemory,
    OutOfStorage,
    Priority,
    StorageSpec,
    symmetric_cluster,
)
from repro.units import GiB, KiB, MiB, gbps


@pytest.fixture
def cluster():
    return Cluster(symmetric_cluster(2, cores=8, dram_bytes=4 * GiB))


class TestCpu:
    def test_run_completes_at_expected_time(self, cluster):
        m = cluster.machine(0)
        item = m.cpu.run(work=2.0, threads=1.0)
        cluster.run(until_event=item)
        assert cluster.sim.now == pytest.approx(2.0)

    def test_priority_preemption_signal(self, cluster):
        m = cluster.machine(0)
        hold = m.cpu.hold(threads=8.0, priority=Priority.HIGH)
        low = m.cpu.run(work=1.0, threads=1.0, priority=Priority.NORMAL)
        assert low.starved
        assert m.cpu.contended(Priority.NORMAL)
        assert m.cpu.free_cores(Priority.NORMAL) == pytest.approx(0.0)
        m.cpu.release(hold)
        assert not low.starved
        assert m.cpu.free_cores(Priority.NORMAL) == pytest.approx(7.0)

    def test_set_cores(self, cluster):
        m = cluster.machine(0)
        m.cpu.set_cores(2.0)
        assert m.cpu.cores == 2.0

    def test_utilization_accounting(self, cluster):
        m = cluster.machine(0)
        m.cpu.run(work=8.0, threads=8.0)  # 1s at full blast
        cluster.run(until=2.0)
        assert m.cpu.utilization_since(0.0) == pytest.approx(0.5)


class TestMemory:
    def test_reserve_release(self, cluster):
        mem = cluster.machine(0).memory
        mem.reserve(1 * GiB)
        assert mem.free == pytest.approx(3 * GiB)
        mem.release(1 * GiB)
        assert mem.free == pytest.approx(4 * GiB)

    def test_oom(self, cluster):
        mem = cluster.machine(0).memory
        with pytest.raises(OutOfMemory):
            mem.reserve(5 * GiB)

    def test_over_release_rejected(self, cluster):
        mem = cluster.machine(0).memory
        with pytest.raises(ValueError):
            mem.release(1.0)

    def test_watermark_fires_on_upward_crossing(self, cluster):
        mem = cluster.machine(0).memory
        fired = []
        mem.add_watermark(0.5, lambda m: fired.append(m.pressure))
        mem.reserve(1 * GiB)
        assert fired == []
        mem.reserve(1.5 * GiB)
        assert len(fired) == 1
        mem.reserve(0.5 * GiB)  # already above: no refire
        assert len(fired) == 1

    def test_bad_watermark(self, cluster):
        with pytest.raises(ValueError):
            cluster.machine(0).memory.add_watermark(0.0, lambda m: None)

    def test_peak_tracking(self, cluster):
        mem = cluster.machine(0).memory
        mem.reserve(2 * GiB)
        mem.release(2 * GiB)
        assert mem.peak_used == pytest.approx(2 * GiB)


class TestNicAndFabric:
    def test_transfer_time_latency_plus_bandwidth(self, cluster):
        src, dst = cluster.machines
        nbytes = 125 * MiB  # 1 Gbit; at 100 Gbit/s -> 10.49 ms
        ev = cluster.fabric.transfer(src, dst, nbytes)
        cluster.run(until_event=ev)
        expected = cluster.spec.network.latency + nbytes / gbps(100.0)
        assert cluster.sim.now == pytest.approx(expected, rel=1e-6)
        assert dst.nic.rx_bytes == nbytes

    def test_local_transfer_is_nearly_free(self, cluster):
        src = cluster.machine(0)
        ev = cluster.fabric.transfer(src, src, 1 * GiB)
        cluster.run(until_event=ev)
        assert cluster.sim.now < 1e-6

    def test_concurrent_transfers_share_bandwidth(self, cluster):
        src, dst = cluster.machines
        nbytes = gbps(100.0) / 10  # 0.1s alone
        a = cluster.fabric.transfer(src, dst, nbytes)
        b = cluster.fabric.transfer(src, dst, nbytes)
        cluster.run(until_event=cluster.sim.all_of([a, b]))
        # fair sharing: both take ~0.2s
        assert cluster.sim.now == pytest.approx(0.2, rel=1e-2)

    def test_rpc_cost_is_microseconds(self, cluster):
        cost = cluster.fabric.rpc_cost()
        assert 1e-6 < cost < 100e-6

    def test_negative_transfer_rejected(self, cluster):
        src, dst = cluster.machines
        with pytest.raises(ValueError):
            cluster.fabric.transfer(src, dst, -1)


class TestGpuPool:
    @pytest.fixture
    def gpu_cluster(self):
        spec = MachineSpec(name="g0", cores=8, dram_bytes=4 * GiB,
                           gpus=GpuSpec(count=4, batch_time=0.01))
        from repro.cluster import ClusterSpec
        return Cluster(ClusterSpec(machines=[spec]))

    def test_batches_consume_at_service_rate(self, gpu_cluster):
        gpus = gpu_cluster.machine(0).gpus
        assert gpus.service_rate == pytest.approx(400.0)
        for _ in range(8):
            gpus.train_batch()
        gpu_cluster.run(until=0.1)
        assert gpus.batches_done == 8
        # 8 batches on 4 GPUs at 10ms each -> 2 waves -> done at 20ms

    def test_resize_notifies(self, gpu_cluster):
        gpus = gpu_cluster.machine(0).gpus
        seen = []
        gpus.on_resize(seen.append)
        gpus.resize(8)
        assert seen == [8]
        assert gpus.count == 8
        gpus.resize(8)  # no-op
        assert seen == [8]

    def test_resize_negative_rejected(self, gpu_cluster):
        with pytest.raises(ValueError):
            gpu_cluster.machine(0).gpus.resize(-1)


class TestStorageDevice:
    @pytest.fixture
    def disk_cluster(self):
        from repro.cluster import ClusterSpec
        spec = MachineSpec(
            name="s0", cores=4, dram_bytes=GiB,
            storage=StorageSpec(capacity_bytes=10 * GiB, iops=1000.0),
        )
        return Cluster(ClusterSpec(machines=[spec]))

    def test_capacity_ledger(self, disk_cluster):
        disk = disk_cluster.machine(0).storage
        disk.reserve(4 * GiB)
        assert disk.free == pytest.approx(6 * GiB)
        with pytest.raises(OutOfStorage):
            disk.reserve(7 * GiB)
        disk.release(4 * GiB)

    def test_read_takes_iops_time(self, disk_cluster):
        disk = disk_cluster.machine(0).storage
        sim = disk_cluster.sim
        p = sim.process(disk.read(4 * KiB))
        sim.run(until_event=p)
        assert sim.now >= 1.0 / 1000.0  # at least one IOPS slot
        assert disk.reads == 1

    def test_write_accounts(self, disk_cluster):
        disk = disk_cluster.machine(0).storage
        sim = disk_cluster.sim
        p = sim.process(disk.write(1 * MiB))
        sim.run(until_event=p)
        assert disk.writes == 1


class TestCluster:
    def test_lookup_by_name_and_id(self, cluster):
        assert cluster.machine(0) is cluster.machine("m0")
        assert cluster.machine(1).name == "m1"

    def test_totals(self, cluster):
        assert cluster.total_cores == 16
        assert cluster.total_free_memory == pytest.approx(8 * GiB)

    def test_machine_hash_eq(self, cluster):
        a, b = cluster.machines
        assert a != b
        assert len({a, b, cluster.machine(0)}) == 2
