"""Tests for the sharded persistent store (§3.3 applied to storage)."""

import pytest

from repro.chaos import InvariantChecker
from repro.cluster import OutOfStorage
from repro.core.storageproclet import StorageProclet
from repro.storage import ShardedStore
from repro.units import GiB, MiB, US

from ..conftest import make_qs, storage_machine


def make_store_qs(enable_split_merge=True):
    return make_qs(machines=[
        storage_machine(name="s0", capacity=16 * GiB, iops=50_000),
        storage_machine(name="s1", capacity=16 * GiB, iops=50_000),
    ], enable_local_scheduler=False, enable_global_scheduler=False,
        enable_split_merge=enable_split_merge)


@pytest.fixture
def qs():
    """The heap-change size controller sizes the store's shards."""
    return make_store_qs()


@pytest.fixture
def quiet_qs():
    """No size controller: the tests split by hand."""
    return make_store_qs(enable_split_merge=False)


def store_for(qs, max_mb=64, min_mb=8):
    return ShardedStore(qs, name="st", max_shard_bytes=max_mb * MiB,
                        min_shard_bytes=min_mb * MiB)


def committed(qs, kind):
    return qs.runtime.reshard_ledger.counters[f"{kind}_committed"]


class TestBasics:
    def test_write_read_roundtrip(self, qs):
        st = store_for(qs)
        qs.run(until_event=st.write("k1", 4 * MiB, "payload"))
        assert qs.run(until_event=st.read("k1")) == "payload"
        assert st.total_objects == 1

    def test_shards_are_storage_proclets(self, qs):
        st = store_for(qs)
        assert type(st.shards[0].proclet) is StorageProclet
        assert st in qs.runtime.reshard_ledger.structures()

    def test_delete_releases_device(self, qs):
        st = store_for(qs)
        dev = st.shards[0].ref.machine.storage
        free0 = dev.free
        qs.run(until_event=st.write("k", 8 * MiB, None))
        qs.run(until_event=st.delete("k"))
        assert dev.free == pytest.approx(free0)
        with pytest.raises(KeyError):
            qs.run(until_event=st.read("k"))

    def test_overwrite_adjusts_device(self, qs):
        st = store_for(qs)
        dev = st.shards[0].ref.machine.storage
        free0 = dev.free
        qs.run(until_event=st.write("k", 8 * MiB, None))
        qs.run(until_event=st.write("k", 2 * MiB, None))
        assert dev.free == pytest.approx(free0 - 2 * MiB)

    def test_validation(self, qs):
        with pytest.raises(ValueError):
            ShardedStore(qs, max_shard_bytes=1.0, min_shard_bytes=2.0)

    def test_io_takes_device_time(self, qs):
        st = store_for(qs)
        t0 = qs.sim.now
        qs.run(until_event=st.write("k", 64 * MiB, None))
        write_bw = st.shards[0].ref.machine.storage.spec.write_bandwidth
        assert qs.sim.now - t0 >= 64 * MiB / write_bw


class TestFailedWrites:
    """A write that fails leaves the store as it was, and a write still
    in device I/O is carved whole by a split."""

    def test_over_capacity_overwrite_keeps_old_object(self, quiet_qs):
        qs = quiet_qs
        st = store_for(qs, max_mb=32 * 1024)
        dev = st.shards[0].ref.machine.storage
        qs.run(until_event=st.write("k", 512 * MiB, "old"))
        with pytest.raises(OutOfStorage):
            qs.run(until_event=st.write("k", 20 * GiB, "new"))
        assert dev.used == 512 * MiB
        assert st.total_bytes == 512 * MiB
        assert qs.run(until_event=st.read("k")) == "old"
        assert qs.run(until_event=st.delete("k")) == 512 * MiB
        assert dev.used == 0.0

    def test_over_capacity_new_key_leaves_no_ghost(self, quiet_qs):
        qs = quiet_qs
        st = store_for(qs, max_mb=32 * 1024)
        for i in (0, 2, 3):
            qs.run(until_event=st.write(f"k{i}", 4 * MiB, i))
        with pytest.raises(OutOfStorage):
            qs.run(until_event=st.write("k1", 20 * GiB, 1))
        assert st.total_objects == 3
        donor = st.shards[0]
        split_key, _child = qs.run(until_event=st.reshard_split_by_id(
            donor.ref.proclet_id))
        assert st.shard_count == 2
        for i in (0, 2, 3):
            assert qs.run(until_event=st.read(f"k{i}")) == i
        with pytest.raises(KeyError):
            qs.run(until_event=st.read("k1"))
        assert sum(m.storage.used for m in qs.machines) == 12 * MiB

    def test_split_during_write_io_keeps_every_object(self, quiet_qs):
        qs = quiet_qs
        st = store_for(qs, max_mb=32 * 1024)
        for i in range(9):
            qs.run(until_event=st.write(f"k{i}", 4 * MiB, i))
        donor = st.shards[0]
        write = st.write("k9", 256 * MiB, 9)
        # The write's CPU step is done; its device I/O takes far longer
        # than the split's prepare step.
        qs.run(until=qs.sim.now + 20 * US)
        assert not write.triggered
        split = st.reshard_split_by_id(donor.ref.proclet_id)
        assert qs.run(until_event=split) is not None
        qs.run(until_event=write)
        assert st.shard_count == 2
        for i in range(10):
            assert qs.run(until_event=st.read(f"k{i}")) == i
        total = 9 * 4 * MiB + 256 * MiB
        assert st.total_bytes == total
        assert sum(m.storage.used for m in qs.machines) == total


class TestStorageSplitting:
    def test_ingest_splits_shards(self, qs):
        st = store_for(qs, max_mb=32, min_mb=4)
        for i in range(12):
            qs.run(until_event=st.write(f"k{i:03d}", 4 * MiB, i))
        qs.run(until=qs.sim.now + 1.0)
        assert st.shard_count >= 2
        assert committed(qs, "split") >= 1
        for shard in st.shards:
            assert shard.proclet.stored_bytes <= 33 * MiB
        # all readable after splits
        for i in range(12):
            assert qs.run(until_event=st.read(f"k{i:03d}")) == i

    def test_split_spreads_across_devices(self, qs):
        st = store_for(qs, max_mb=32, min_mb=4)
        for i in range(20):
            qs.run(until_event=st.write(f"k{i:03d}", 4 * MiB, i))
        qs.run(until=qs.sim.now + 2.0)
        machines = {m.name for m in st.shard_machines()}
        assert machines == {"s0", "s1"}, \
            "splits should land on the other device"

    def test_deletions_trigger_merge(self, qs):
        st = store_for(qs, max_mb=32, min_mb=8)
        for i in range(16):
            qs.run(until_event=st.write(f"k{i:03d}", 4 * MiB, i))
        qs.run(until=qs.sim.now + 2.0)
        shards_before = st.shard_count
        assert shards_before >= 2
        for i in range(14):
            qs.run(until_event=st.delete(f"k{i:03d}"))
        qs.run(until=qs.sim.now + 2.0)
        assert st.shard_count < shards_before
        assert committed(qs, "merge") >= 1
        for i in range(14, 16):
            assert qs.run(until_event=st.read(f"k{i:03d}")) == i

    def test_bytes_conserved_across_churn(self, qs):
        st = store_for(qs, max_mb=16, min_mb=2)
        total = 0
        for i in range(20):
            qs.run(until_event=st.write(f"k{i:03d}", 2 * MiB, i))
            total += 2 * MiB
        qs.run(until=qs.sim.now + 2.0)
        assert st.total_bytes == pytest.approx(total)
        device_used = sum(m.storage.used for m in qs.machines)
        assert device_used == pytest.approx(total)

    def test_split_merge_off_leaves_one_shard(self, quiet_qs):
        st = store_for(quiet_qs, max_mb=16, min_mb=2)
        for i in range(20):
            quiet_qs.run(until_event=st.write(f"k{i:03d}", 2 * MiB, i))
        quiet_qs.run(until=quiet_qs.sim.now + 1.0)
        assert st.shard_count == 1

    def test_destroy(self, qs):
        st = store_for(qs)
        qs.run(until_event=st.write("k", 1 * MiB, None))
        st.destroy()
        assert st.shard_count == 0
        assert sum(m.storage.used for m in qs.machines) == 0.0
        assert st not in qs.runtime.reshard_ledger.structures()


@pytest.mark.parametrize("controller", ["heap-change", "autoscale"])
def test_store_churn_passes_invariant_checks(controller):
    """Ingest, automatic splits, deletes and merges with the chaos
    invariant checker auditing the store's routing table after every
    simulator event."""
    qs = make_store_qs()
    if controller == "autoscale":
        qs.enable_autoscaler()
    checker = InvariantChecker(qs.runtime).attach(qs.sim)
    st = store_for(qs, max_mb=16, min_mb=4)
    for i in range(24):
        qs.run(until_event=st.write(f"k{i:03d}", 2 * MiB, i))
    qs.run(until=qs.sim.now + 0.5)
    splits = committed(qs, "split")
    assert splits >= 2 and st.shard_count >= 3
    for i in range(22):
        qs.run(until_event=st.delete(f"k{i:03d}"))
    qs.run(until=qs.sim.now + 0.5)
    assert committed(qs, "merge") >= 1
    assert st.shard_count < splits + 1
    for i in range(22, 24):
        assert qs.run(until_event=st.read(f"k{i:03d}")) == i
    checker.check()
    assert checker.checks > 0
