"""Crash tests for the two-phase reshard protocol: commit atomicity,
rollback at every phase boundary, and service preservation during the
gate window.  The chaos invariant checker is attached throughout, so
every simulator event — including the ones between a machine failure
and the protocol's rollback — is audited for routable-keys-always,
range-map agreement, and no-orphaned-children."""

import pytest

from repro.chaos import InvariantChecker
from repro.ds.sharding import BOTTOM
from repro.runtime import DeadProclet
from repro.units import KiB, MS, MiB, US

from ..conftest import make_qs

ITEM = 1 * MiB  # big items: transfers are long enough to interrupt


def make_quiet_qs(**kwargs):
    """No background controllers: the tests drive the protocol by hand."""
    kwargs.setdefault("max_shard_bytes", 256 * KiB)
    kwargs.setdefault("min_shard_bytes", 32 * KiB)
    kwargs.setdefault("enable_local_scheduler", False)
    kwargs.setdefault("enable_global_scheduler", False)
    kwargs.setdefault("enable_split_merge", False)
    return make_qs(**kwargs)


def checked(qs):
    return InvariantChecker(qs.runtime).attach(qs.sim)


def fill(qs, m, n, item=ITEM):
    for i in range(n):
        qs.run(until_event=m.put(f"k{i:04d}", i, item))


def step_until(qs, pred, step=20 * US, limit=20_000):
    """Advance virtual time in small steps until *pred* holds."""
    for _ in range(limit):
        if pred():
            return
        qs.run(until=qs.sim.now + step)
    raise AssertionError("condition never became true")


def two_shards(qs, m, n=8):
    """Split once so the map has two shards on different machines."""
    fill(qs, m, n)
    donor = m.shards[0]
    force_cross_machine(qs, donor.ref.machine)
    assert qs.run(until_event=m.reshard_split_by_id(
        donor.ref.proclet_id)) is not None
    assert m.shard_count == 2
    assert m.shards[0].ref.machine is not m.shards[1].ref.machine


def force_cross_machine(qs, donor_machine):
    """Pin child placement to a machine that is not the donor's."""
    other = next(mach for mach in qs.machines if mach is not donor_machine)
    qs.placement.best_for_memory = lambda *a, **k: other
    return other


class TestSplitProtocol:
    def test_commit_flips_table_atomically(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor = m.shards[0]
        force_cross_machine(qs, donor.ref.machine)
        ev = m.reshard_split_by_id(donor.ref.proclet_id)
        split_key, child_ref = qs.run(until_event=ev)
        assert m.shard_count == 2
        assert [s.lo for s in m.shards] == m._los
        assert m.shards[0].lo == BOTTOM and m.shards[1].lo == split_key
        assert m.shards[1].ref is child_ref
        # Ranges were pushed down inside the same commit step.
        lo_p, hi_p = m.shards[0].proclet, m.shards[1].proclet
        assert lo_p.range_hi == split_key and hi_p.range_lo == split_key
        ledger = qs.runtime.reshard_ledger
        assert ledger.counters["split_committed"] == 1
        assert ledger.active_count() == 0
        for i in range(8):
            assert qs.run(until_event=m.get(f"k{i:04d}")) == i
        assert checker.checks > 0

    def test_declined_when_single_object(self):
        qs = make_quiet_qs()
        m = qs.sharded_map(name="kv")
        fill(qs, m, 1)
        ev = m.reshard_split_by_id(m.shards[0].ref.proclet_id)
        assert qs.run(until_event=ev) is None
        assert m.shard_count == 1
        # Declined before any side effect: nothing started, nothing
        # aborted.
        assert qs.runtime.reshard_ledger.counters["split_started"] == 0

    def test_unknown_shard_returns_none(self):
        qs = make_quiet_qs()
        m = qs.sharded_map(name="kv")
        assert m.reshard_split_by_id(10**9) is None
        assert m.reshard_merge_by_id(10**9) is None

    def test_donor_crash_in_prepare_aborts(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor = m.shards[0]
        ev = m.reshard_split_by_id(donor.ref.proclet_id)
        qs.run(until=qs.sim.now + 30 * US)  # inside the prepare gate
        assert qs.runtime.reshard_ledger.active_count() == 1
        qs.runtime.fail_machine(donor.ref.machine)
        assert qs.run(until_event=ev) is None
        ledger = qs.runtime.reshard_ledger
        assert ledger.counters["split_aborted"] == 1
        assert ledger.active_count() == 0
        # The (now lost) donor stays in the table for recovery to find.
        assert m.shard_count == 1
        assert donor.ref.proclet_id in qs.runtime.lost_proclets()
        assert checker.checks > 0

    def test_child_machine_crash_mid_transfer_rolls_back(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor = m.shards[0]
        dst = force_cross_machine(qs, donor.ref.machine)
        ledger = qs.runtime.reshard_ledger
        ev = m.reshard_split_by_id(donor.ref.proclet_id)
        # Wait for the gated child to exist: the op is mid-transfer.
        step_until(qs, lambda: any(op.child_id is not None
                                   for op in ledger.active_ops()))
        qs.runtime.fail_machine(dst)
        assert qs.run(until_event=ev) is None
        assert ledger.counters["split_aborted"] == 1
        assert m.shard_count == 1
        # Rollback reinstalled the extracted half: nothing was lost.
        for i in range(8):
            assert qs.run(until_event=m.get(f"k{i:04d}")) == i
        assert checker.checks > 0

    def test_donor_crash_mid_transfer_aborts_and_reaps_child(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor = m.shards[0]
        donor_machine = donor.ref.machine
        force_cross_machine(qs, donor_machine)
        ledger = qs.runtime.reshard_ledger
        ev = m.reshard_split_by_id(donor.ref.proclet_id)
        step_until(qs, lambda: any(op.child_id is not None
                                   for op in ledger.active_ops()))
        child_id = ledger.active_ops()[0].child_id
        qs.runtime.fail_machine(donor_machine)
        assert qs.run(until_event=ev) is None
        assert ledger.counters["split_aborted"] == 1
        # The half-filled child was destroyed, not leaked into service.
        assert child_id not in qs.runtime._proclets
        assert m.shard_count == 1
        # Fail-stop semantics: the donor's keys died with its machine.
        with pytest.raises(DeadProclet):
            qs.run(until_event=m.get("k0000"))
        assert checker.checks > 0


class TestGateLedger:
    """The runtime's gate ledger times every window a reshard op holds."""

    def test_split_records_donor_and_child_windows(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        runtime = qs.runtime
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor_id = m.shards[0].ref.proclet_id
        force_cross_machine(qs, m.shards[0].ref.machine)
        ev = m.reshard_split_by_id(donor_id)
        step_until(qs, lambda: len(runtime.gates) == 2)
        (donor_pid, donor_entry), (child_pid, child_entry) = \
            runtime.gates.items()
        assert donor_pid == donor_id
        assert donor_entry[0] == child_entry[0] == "reshard.split"
        assert donor_entry[1] < child_entry[1]
        _split_key, child_ref = qs.run(until_event=ev)
        assert child_pid == child_ref.proclet_id
        # Both gates open at commit, the child's first.
        assert runtime.gate_windows["reshard.split"] == [
            pytest.approx(qs.sim.now - child_entry[1]),
            pytest.approx(qs.sim.now - donor_entry[1])]
        assert checker.checks > 0

    def test_merge_donor_crash_in_prepare_files_the_crash_window(self):
        """The donor's window ends at its machine's crash, not when the
        op notices the crash at the end of its prepare overhead."""
        qs = make_quiet_qs()
        checker = checked(qs)
        runtime = qs.runtime
        m = qs.sharded_map(name="kv")
        two_shards(qs, m)
        donor = m.shards[1]
        ev = m.reshard_merge_by_id(donor.ref.proclet_id)
        step_until(qs, lambda: len(runtime.gates) == 2, step=1 * US)
        opened = runtime.gates[donor.ref.proclet_id][1]
        qs.run(until=opened + 30 * US)  # inside the prepare gate
        runtime.fail_machine(donor.ref.machine)
        crashed = qs.sim.now
        assert qs.run(until_event=ev) is None
        assert runtime.gate_windows["reshard.merge"] == [
            pytest.approx(crashed - opened),
            pytest.approx(qs.config.split_overhead)]
        assert qs.config.split_overhead > crashed - opened
        assert runtime.gates == {}
        assert checker.checks > 0


class TestMergeProtocol:
    def test_commit_merges_and_preserves_keys(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        two_shards(qs, m)
        right = m.shards[1]
        ev = m.reshard_merge_by_id(right.ref.proclet_id)
        assert qs.run(until_event=ev) is True
        assert m.shard_count == 1
        assert m.shards[0].lo == BOTTOM
        assert [s.lo for s in m.shards] == m._los
        ledger = qs.runtime.reshard_ledger
        assert ledger.counters["merge_committed"] == 1
        assert ledger.active_count() == 0
        for i in range(8):
            assert qs.run(until_event=m.get(f"k{i:04d}")) == i
        assert checker.checks > 0

    def test_left_donor_range_absorbed_by_survivor(self):
        qs = make_quiet_qs()
        m = qs.sharded_map(name="kv")
        two_shards(qs, m)
        left = m.shards[0]
        split_key = m.shards[1].lo
        ev = m.reshard_merge_by_id(left.ref.proclet_id)
        assert qs.run(until_event=ev) is True
        assert m.shard_count == 1
        # The survivor (old right shard) inherited BOTTOM.
        assert m.shards[0].lo == BOTTOM
        assert m.shards[0].lo != split_key
        for i in range(8):
            assert qs.run(until_event=m.get(f"k{i:04d}")) == i

    def test_endpoint_crash_in_prepare_aborts(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        two_shards(qs, m)
        right = m.shards[1]
        ev = m.reshard_merge_by_id(right.ref.proclet_id)
        qs.run(until=qs.sim.now + 30 * US)  # inside the prepare gate
        qs.runtime.fail_machine(right.ref.machine)
        assert qs.run(until_event=ev) is None
        ledger = qs.runtime.reshard_ledger
        assert ledger.counters["merge_aborted"] == 1
        # Table untouched: two shards, the donor lost for recovery.
        assert m.shard_count == 2
        assert qs.run(until_event=m.get("k0000")) == 0  # left intact

    def test_survivor_crash_mid_transfer_reinstalls_donor(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        two_shards(qs, m)
        left, right = m.shards
        split_key = right.lo
        ledger = qs.runtime.reshard_ledger
        ev = m.reshard_merge_by_id(right.ref.proclet_id)
        # Let the op pass the prepare gate into the bulk transfer.
        t0 = qs.sim.now
        step_until(qs, lambda: ledger.active_count() == 1
                   and qs.sim.now > t0 + qs.config.split_overhead)
        qs.runtime.fail_machine(left.ref.machine)
        assert qs.run(until_event=ev) is None
        assert ledger.counters["merge_aborted"] == 1
        assert m.shard_count == 2
        # The donor reinstalled its extracted items: every key at or
        # above the split point still reads back correctly.
        for i in range(8):
            key = f"k{i:04d}"
            if key >= split_key:
                assert qs.run(until_event=m.get(key)) == i
        assert checker.checks > 0


class TestServicePreservation:
    def test_reads_issued_during_gate_window_complete(self):
        """Calls routed while the donor is gated block (they do not
        fail) and settle with correct results after the flip — for keys
        that stay in the donor AND keys that move to the child."""
        qs = make_quiet_qs()
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor = m.shards[0]
        force_cross_machine(qs, donor.ref.machine)
        ev = m.reshard_split_by_id(donor.ref.proclet_id)
        qs.run(until=qs.sim.now + 30 * US)  # op holds the gate
        assert qs.runtime.reshard_ledger.active_count() == 1
        reads = [m.get(f"k{i:04d}") for i in range(8)]
        write = m.put("k0000", 999, ITEM)
        split_key, _ = qs.run(until_event=ev)
        assert m.shard_count == 2
        for i, read in enumerate(reads):
            got = qs.run(until_event=read)
            assert got in (i, 999) if i == 0 else got == i
        qs.run(until_event=write)
        assert qs.run(until_event=m.get("k0000")) == 999
        # Keys on both sides of the split answered.
        assert any(f"k{i:04d}" >= split_key for i in range(8))
        assert checker.checks > 0

    def test_gate_window_is_bounded(self):
        """The dual-route window is timed and bounded: a committed split
        files two gate windows (donor and child), none left open."""
        qs = make_quiet_qs()
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        donor = m.shards[0]
        force_cross_machine(qs, donor.ref.machine)
        qs.run(until_event=m.reshard_split_by_id(donor.ref.proclet_id))
        windows = qs.runtime.gate_windows["reshard.split"]
        assert len(windows) == 2
        assert all(0.0 < w < 50 * MS for w in windows)
        assert qs.runtime.gates == {}
        # All gates reopened: every shard answers immediately.
        from repro.runtime.proclet import ProcletStatus
        for s in m.shards:
            assert s.proclet.status is ProcletStatus.RUNNING


class TestCommitDuringMigration:
    def test_split_commit_while_index_migrates_conserves_dram(self):
        """A commit charges the new routing-table entry to the index
        proclet; when the index is mid-migration that heap change must
        move with it (regression: the source kept the entry's bytes)."""
        from repro.ds.sharding import INDEX_ENTRY_BYTES
        from repro.runtime.proclet import ProcletStatus

        qs = make_quiet_qs(split_overhead=10 * US)
        checker = checked(qs)
        m = qs.sharded_map(name="kv")
        fill(qs, m, 8)
        index = m.index_ref.proclet
        donor = m.shards[0]
        # A child next to its donor needs no transfer: the commit lands
        # one split overhead in, well inside the index's migration.
        qs.placement.best_for_memory = lambda *a, **k: donor.ref.machine
        other = next(x for x in qs.machines if x is not index.machine)
        migration = qs.runtime.migrate(index, other)
        split = m.reshard_split_by_id(donor.ref.proclet_id)
        assert qs.run(until_event=split) is not None
        assert index.status is ProcletStatus.MIGRATING
        qs.run(until_event=migration)
        assert index.machine is other
        assert index.heap_bytes == 2 * INDEX_ENTRY_BYTES
        assert sum(x.memory.used for x in qs.machines) == pytest.approx(
            sum(p.footprint for p in qs.runtime._proclets.values()))
        assert checker.checks > 0


class TestQueueProtocol:
    """Queue shards reshard through the same protocol: a split moves
    the back half of the FIFO, a merge appends to the partner."""

    def _queue(self, qs, n=8):
        q = qs.sharded_queue(name="q", initial_shards=1)
        for i in range(n):
            qs.run(until_event=q.push(i, ITEM))
        return q

    def test_split_commits_back_half(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        q = self._queue(qs)
        donor = q.shards[0]
        force_cross_machine(qs, donor.machine)
        _key, child = qs.run(until_event=q.reshard_split_by_id(
            donor.proclet_id))
        assert q.shards == [donor, child]
        assert donor.proclet.length == child.proclet.length == 4
        assert qs.runtime.reshard_ledger.counters["split_committed"] == 1
        got = sorted(qs.run(until_event=q.pop()) for _ in range(8))
        assert got == list(range(8))
        assert checker.checks > 0

    def test_child_crash_mid_transfer_rolls_back(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        q = self._queue(qs)
        donor = q.shards[0]
        dst = force_cross_machine(qs, donor.machine)
        ledger = qs.runtime.reshard_ledger
        ev = q.reshard_split_by_id(donor.proclet_id)
        step_until(qs, lambda: any(op.child_id is not None
                                   for op in ledger.active_ops()))
        qs.runtime.fail_machine(dst)
        assert qs.run(until_event=ev) is None
        assert ledger.counters["split_aborted"] == 1
        assert ledger.active_count() == 0
        assert q.shards == [donor]
        # The back half went back where it came from, in FIFO order.
        got = [qs.run(until_event=q.pop()) for _ in range(8)]
        assert got == list(range(8))
        assert checker.checks > 0

    def test_survivor_crash_mid_transfer_reinstalls_donor(self):
        qs = make_quiet_qs()
        checker = checked(qs)
        q = self._queue(qs)
        survivor = q.shards[0]
        force_cross_machine(qs, survivor.machine)
        _key, donor = qs.run(until_event=q.reshard_split_by_id(
            survivor.proclet_id))
        ledger = qs.runtime.reshard_ledger
        ev = q.reshard_merge_by_id(donor.proclet_id)
        t0 = qs.sim.now
        step_until(qs, lambda: ledger.active_count() == 1
                   and qs.sim.now > t0 + qs.config.split_overhead)
        qs.runtime.fail_machine(survivor.machine)
        assert qs.run(until_event=ev) is None
        assert ledger.counters["merge_aborted"] == 1
        assert q.shards == [survivor, donor]
        assert donor.proclet.length == 4
        assert checker.checks > 0


class TestStoreProtocol:
    """The sharded store reshards through the same protocol; moving a
    shard's persistent bytes adds a device read and write."""

    def _store(self, qs, n=8):
        from repro.storage import ShardedStore

        st = ShardedStore(qs, name="st", max_shard_bytes=1024 * MiB,
                          min_shard_bytes=1 * KiB)
        for i in range(n):
            qs.run(until_event=st.write(f"k{i}", ITEM, i))
        return st

    def _qs(self):
        from ..conftest import storage_machine

        qs = make_quiet_qs(machines=[storage_machine(name="s0"),
                                     storage_machine(name="s1")])
        checked(qs)
        return qs

    def test_split_commits_and_charges_devices(self):
        qs = self._qs()
        st = self._store(qs)
        donor = st.shards[0]
        split_key, child = qs.run(until_event=st.reshard_split_by_id(
            donor.ref.proclet_id))
        assert [s.lo for s in st.shards] == [BOTTOM, split_key]
        assert child.machine is not donor.ref.machine
        assert qs.runtime.reshard_ledger.counters["split_committed"] == 1
        assert child.proclet.range_lo == split_key
        assert sum(m.storage.used for m in qs.machines) == 8 * ITEM
        for i in range(8):
            assert qs.run(until_event=st.read(f"k{i}")) == i

    def test_child_crash_mid_move_rolls_back(self):
        qs = self._qs()
        st = self._store(qs)
        donor = st.shards[0]
        src = donor.ref.machine
        dst = next(m for m in qs.machines if m is not src)
        ledger = qs.runtime.reshard_ledger
        ev = st.reshard_split_by_id(donor.ref.proclet_id)
        step_until(qs, lambda: any(op.child_id is not None
                                   for op in ledger.active_ops()))
        child_id = ledger.active_ops()[0].child_id
        qs.runtime.fail_machine(dst)
        assert qs.run(until_event=ev) is None
        assert ledger.counters["split_aborted"] == 1
        assert child_id not in qs.runtime._proclets
        assert st.shard_count == 1
        assert ledger.counters["split_committed"] == 0
        assert donor.proclet.object_count == 8
        assert src.storage.used == 8 * ITEM
        for i in range(8):
            assert qs.run(until_event=st.read(f"k{i}")) == i
