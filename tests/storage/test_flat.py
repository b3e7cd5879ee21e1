"""Tests for storage proclets and the flat storage abstraction."""

import pytest

from repro.chaos import InvariantChecker
from repro.cluster import OutOfStorage
from repro.ds.sharding import hash_key
from repro.units import GiB, KiB, MiB

from ..conftest import make_qs, storage_machine


@pytest.fixture
def qs():
    return make_qs(machines=[
        storage_machine(name="s0", capacity=8 * GiB, iops=10_000),
        storage_machine(name="s1", capacity=8 * GiB, iops=10_000),
    ], enable_local_scheduler=False, enable_global_scheduler=False,
        enable_split_merge=False)


class TestStorageProclet:
    def test_write_read_roundtrip(self, qs):
        ref = qs.spawn_storage(name="sp")
        qs.sim.run(until_event=ref.call("sp_write", "obj", 1 * MiB, "data"))
        assert qs.sim.run(until_event=ref.call("sp_read", "obj")) == "data"
        assert ref.proclet.reads == 1
        assert ref.proclet.writes == 1

    def test_write_charges_device_capacity(self, qs):
        ref = qs.spawn_storage(machine=qs.machines[0])
        device = qs.machines[0].storage
        free0 = device.free
        qs.sim.run(until_event=ref.call("sp_write", "a", 100 * MiB, None))
        assert device.free == pytest.approx(free0 - 100 * MiB)

    def test_overwrite_releases_old_bytes(self, qs):
        ref = qs.spawn_storage(machine=qs.machines[0])
        device = qs.machines[0].storage
        free0 = device.free
        qs.sim.run(until_event=ref.call("sp_write", "a", 100 * MiB, None))
        qs.sim.run(until_event=ref.call("sp_write", "a", 10 * MiB, None))
        assert device.free == pytest.approx(free0 - 10 * MiB)
        assert ref.proclet.object_count == 1

    def test_delete_releases(self, qs):
        ref = qs.spawn_storage(machine=qs.machines[0])
        device = qs.machines[0].storage
        free0 = device.free
        qs.sim.run(until_event=ref.call("sp_write", "a", 1 * MiB, None))
        qs.sim.run(until_event=ref.call("sp_delete", "a"))
        assert device.free == pytest.approx(free0)

    def test_read_missing_fails(self, qs):
        ref = qs.spawn_storage()
        with pytest.raises(KeyError):
            qs.sim.run(until_event=ref.call("sp_read", "ghost"))

    def test_capacity_exhaustion(self, qs):
        ref = qs.spawn_storage(machine=qs.machines[0])
        with pytest.raises(OutOfStorage):
            qs.sim.run(until_event=ref.call("sp_write", "big",
                                            9 * GiB, None))

    def test_iops_limit_paces_small_reads(self, qs):
        ref = qs.spawn_storage(machine=qs.machines[0])
        qs.sim.run(until_event=ref.call("sp_write", "k", 4 * KiB, None))
        t0 = qs.sim.now
        events = [ref.call("sp_read", "k") for _ in range(100)]
        qs.sim.run(until_event=qs.sim.all_of(events))
        # 100 ops at 10k IOPS >= 10ms
        assert qs.sim.now - t0 >= 0.01


class TestFlatStorage:
    def test_spreads_proclets_over_devices(self, qs):
        fs = qs.flat_storage()
        machines = [shard.ref.machine.name for shard in fs.shards]
        assert machines == ["s0"] * 4 + ["s1"] * 4
        assert fs in qs.runtime.reshard_ledger.structures()

    def test_write_read_delete(self, qs):
        fs = qs.flat_storage()
        qs.sim.run(until_event=fs.write("obj-1", 1 * MiB, "hello"))
        assert qs.sim.run(until_event=fs.read("obj-1")) == "hello"
        assert qs.sim.run(until_event=fs.contains("obj-1")) is True
        qs.sim.run(until_event=fs.delete("obj-1"))
        assert qs.sim.run(until_event=fs.contains("obj-1")) is False

    def test_objects_spread_by_hash(self, qs):
        fs = qs.flat_storage()
        events = [fs.write(f"k{i}", 64 * KiB, None) for i in range(64)]
        qs.sim.run(until_event=qs.sim.all_of(events))
        populated = sum(1 for shard in fs.shards
                        if shard.proclet.object_count > 0)
        assert populated >= fs.shard_count // 2
        assert fs.total_objects == 64

    @pytest.mark.parametrize("controller", ["off", "heap-change",
                                            "autoscale"])
    def test_aggregate_iops_speeds_up_reads(self, controller):
        """The §3.2 claim: spreading combines capacity AND IOPS (and no
        size controller merges the stripe away)."""

        def timed_reads(n_machines):
            qs = make_qs(machines=[
                storage_machine(name=f"s{i}", capacity=8 * GiB, iops=1000)
                for i in range(n_machines)
            ], enable_local_scheduler=False, enable_global_scheduler=False,
                enable_split_merge=controller != "off")
            if controller == "autoscale":
                qs.enable_autoscaler()
            fs = qs.flat_storage()
            writes = [fs.write(f"k{i}", 4 * KiB, None) for i in range(64)]
            qs.sim.run(until_event=qs.sim.all_of(writes))
            qs.sim.run(until=qs.sim.now + 0.1)
            t0 = qs.sim.now
            reads = [fs.read(f"k{i}") for i in range(64)]
            qs.sim.run(until_event=qs.sim.all_of(reads))
            return qs.sim.now - t0

        one = timed_reads(1)
        four = timed_reads(4)
        assert four < one / 2

    def test_over_capacity_overwrite_keeps_old_object(self, qs):
        fs = qs.flat_storage()
        dev = fs.route(hash_key("obj")).machine.storage
        qs.sim.run(until_event=fs.write("obj", 512 * MiB, "old"))
        with pytest.raises(OutOfStorage):
            qs.sim.run(until_event=fs.write("obj", 9 * GiB, "new"))
        assert dev.used == 512 * MiB
        assert qs.sim.run(until_event=fs.read("obj")) == "old"
        qs.sim.run(until_event=fs.delete("obj"))
        assert dev.used == 0.0

    def test_stats(self, qs):
        fs = qs.flat_storage()
        assert fs.total_capacity == pytest.approx(16 * GiB)
        assert fs.aggregate_iops == pytest.approx(20_000)

    def test_requires_storage_machines(self):
        qs = make_qs(enable_local_scheduler=False,
                     enable_global_scheduler=False,
                     enable_split_merge=False)
        with pytest.raises(RuntimeError):
            qs.flat_storage()

    def test_destroy(self, qs):
        fs = qs.flat_storage()
        used0 = [m.storage.used for m in qs.machines]
        events = [fs.write(f"k{i}", 10 * MiB, None) for i in range(10)]
        qs.sim.run(until_event=qs.sim.all_of(events))
        assert sum(m.storage.used for m in qs.machines) == 100 * MiB
        fs.destroy()
        assert fs.shard_count == 0
        assert [m.storage.used for m in qs.machines] == used0
        assert fs not in qs.runtime.reshard_ledger.structures()


@pytest.mark.parametrize("controller", ["heap-change", "autoscale"])
def test_flat_storage_churn_passes_invariant_checks(controller):
    """Writes, automatic splits and deletes with the chaos invariant
    checker auditing the stripe's routing table after every event."""
    qs = make_qs(machines=[
        storage_machine(name="s0", capacity=64 * GiB, iops=50_000),
        storage_machine(name="s1", capacity=64 * GiB, iops=50_000),
    ], enable_local_scheduler=False, enable_global_scheduler=False)
    if controller == "autoscale":
        qs.enable_autoscaler()
    checker = InvariantChecker(qs.runtime).attach(qs.sim)
    fs = qs.flat_storage()
    stripe = fs.shard_count
    # Twenty 64 MiB objects in the first stripe shard take it past its
    # 1 GiB bound.
    first_hi = fs.shards[1].lo
    keys = [k for k in (f"k{i}" for i in range(1000))
            if hash_key(k) < first_hi][:20]
    for i, key in enumerate(keys):
        qs.run(until_event=fs.write(key, 64 * MiB, i))
    qs.run(until=qs.sim.now + 2.0)
    splits = qs.runtime.reshard_ledger.counters["split_committed"]
    assert splits >= 1 and fs.shard_count == stripe + splits
    for key in keys[:16]:
        qs.run(until_event=fs.delete(key))
    qs.run(until=qs.sim.now + 0.5)
    # The stripe never merges away.
    assert qs.runtime.reshard_ledger.counters["merge_committed"] == 0
    assert fs.shard_count == stripe + splits
    for i in range(16, 20):
        assert qs.run(until_event=fs.read(keys[i])) == i
    assert sum(m.storage.used for m in qs.machines) == 4 * 64 * MiB
    checker.check()
    assert checker.checks > 0
