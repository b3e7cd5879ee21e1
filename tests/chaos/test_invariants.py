"""Tests for the invariant checker: it passes on healthy runs and
catches deliberately corrupted state."""

from types import SimpleNamespace

import pytest

from repro.chaos import InvariantChecker, InvariantViolation
from repro.runtime import ProcletStatus
from repro.units import MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


def checked(qs, **kw):
    return InvariantChecker(qs.runtime, **kw).attach(qs.sim)


def sharded_map(qs, n_shards=3):
    """A range-sharded map split (through the two-phase protocol) into
    *n_shards* shards, with the table settled and every op complete."""
    m = qs.sharded_map(name="kv")
    for i in range(8):
        qs.run(until_event=m.put(f"k{i:04d}", i, 1 * MiB))
    while m.shard_count < n_shards:
        qs.run(until_event=m.reshard_split_by_id(
            m.shards[-1].ref.proclet_id))
    assert qs.runtime.reshard_ledger.active_count() == 0
    return m


def clone_call(*attempts, decided=True, decided_at=-1.0, process=None):
    """A stand-in for a :class:`repro.hedge.CloneCall` coordinator."""
    return SimpleNamespace(attempts=list(attempts), decided=decided,
                           decided_at=decided_at, process=process)


def attempt(index, won=False, triggered=True, work_items=()):
    return SimpleNamespace(index=index, won=won,
                           process=SimpleNamespace(triggered=triggered),
                           work_items=list(work_items))


class TestHealthyRuns:
    def test_clean_workload_passes(self, qs):
        checker = checked(qs)
        pool = qs.compute_pool(initial_members=2)
        ref = qs.spawn_memory()
        ref.call("mp_put", "k", 10 * MiB)
        for _ in range(5):
            pool.run(0.001)
        qs.run(until=0.1)
        assert checker.checks > 0
        checker.check()  # final state also holds

    def test_holds_across_migration(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        qs.run(until_event=ref.call("mp_put", "k", 50 * MiB))
        qs.run(until_event=qs.runtime.migrate(ref.proclet, m1))
        assert checker.checks > 0

    def test_holds_across_machine_failure(self, qs):
        checker = checked(qs)
        m0, _ = qs.machines
        ref = qs.spawn_memory(machine=m0)
        ref.call("mp_put", "k", 10 * MiB)
        qs.run(until=0.01)
        qs.runtime.fail_machine(m0)
        qs.run(until=0.02)
        qs.runtime.restore_machine(m0)
        qs.run(until=0.03)
        assert checker.checks > 0

    def test_stride_reduces_check_frequency(self, qs):
        every = checked(qs)
        sparse = InvariantChecker(qs.runtime, stride=10).attach(qs.sim)
        qs.compute_pool(initial_members=2).run(0.001)
        qs.run(until=0.05)
        assert 0 < sparse.checks < every.checks
        sparse.detach()
        every.detach()
        n = every.checks
        qs.run(until=0.06)
        assert every.checks == n  # detached checkers stop counting

    def test_oracle_mode_runs_comparisons(self, qs):
        checker = checked(qs, oracle=True)
        qs.compute_pool(initial_members=2).run(0.005)
        qs.run(until=0.05)
        assert checker.oracle_comparisons > 0

    def test_bad_stride_rejected(self, qs):
        with pytest.raises(ValueError):
            InvariantChecker(qs.runtime, stride=0)


class TestCorruptionDetected:
    def test_double_placement(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        loc = qs.runtime.locator
        loc._by_machine.setdefault(m1, set()).add(ref.proclet_id)
        with pytest.raises(InvariantViolation, match="double-placed|disagree"):
            checker.check()

    def test_locator_proclet_disagreement(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        ref.proclet._machine = m1  # locator still says m0
        with pytest.raises(InvariantViolation, match="locator says"):
            checker.check()

    def test_memory_leak_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        m0.memory.reserve(64 * MiB)  # bytes nobody accounts for
        with pytest.raises(InvariantViolation, match="DRAM ledger"):
            checker.check()

    def test_memory_underaccounting_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        m0.memory.release(32 * 1024)  # bytes released out of thin air
        with pytest.raises(InvariantViolation, match="DRAM ledger"):
            checker.check()

    def test_crashed_machine_with_residual_memory(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.runtime.fail_machine(m0)
        m0.memory.used = 10.0  # corrupt the wiped ledger
        with pytest.raises(InvariantViolation, match="crashed"):
            checker.check()

    def test_fluid_rate_corruption_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        item = m0.cpu.sched.submit(work=10.0, demand=1.0)
        qs.run(until=0.001)
        item._rate = 1e9  # corrupt: far beyond demand and capacity
        with pytest.raises(InvariantViolation, match="rate|load"):
            checker.check()

    def test_stale_load_cache_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        m0.cpu.sched.submit(work=10.0, demand=2.0)
        qs.run(until=0.001)
        m0.cpu.sched._load = 123.0  # corrupt the cached aggregate
        with pytest.raises(InvariantViolation, match="cached load"):
            checker.check()

    def test_permanently_gated_proclet_detected(self, qs):
        checker = checked(qs, gate_timeout=0.01)
        ref = qs.spawn_memory()
        proclet = ref.proclet
        # Simulate a stuck migration: gate never opens.
        from repro.runtime import ProcletStatus

        proclet._status = ProcletStatus.MIGRATING
        proclet._migration_gate = qs.sim.event()
        checker.check()  # first sighting: starts the clock
        qs.sim.run(until=0.1)
        with pytest.raises(InvariantViolation, match="gated"):
            checker.check()

    def test_locator_maps_dead_proclet(self, qs):
        checker = checked(qs)
        ref = qs.spawn_memory()
        del qs.runtime._proclets[ref.proclet_id]
        with pytest.raises(InvariantViolation,
                           match=f"locator maps dead proclet "
                                 f"#{ref.proclet_id}"):
            checker.check()

    def test_residency_sets_miss_table_entry(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        ref = qs.spawn_memory(machine=m0)
        qs.runtime.locator._by_machine[m0].discard(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match=r"table and residency sets disagree: "
                                 rf"\[{ref.proclet_id}\]"):
            checker.check()

    def test_live_proclet_missing_from_locator(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        ref = qs.spawn_memory(machine=m0, name="ghost")
        loc = qs.runtime.locator
        del loc._table[ref.proclet_id]
        loc._by_machine[m0].discard(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match="live proclet ghost missing from locator"):
            checker.check()

    def test_residency_set_disagrees_with_table(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        loc = qs.runtime.locator
        loc._by_machine[m0].discard(ref.proclet_id)
        loc._by_machine.setdefault(m1, set()).add(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match=f"#{ref.proclet_id} in m1's residency set "
                                 f"but table says m0"):
            checker.check()

    def test_crashed_machine_still_hosting(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        m0.up = False  # down without the crash teardown
        m0.memory.used = 0.0
        with pytest.raises(InvariantViolation,
                           match="crashed m0 still hosts proclets"):
            checker.check()

    def test_dram_oversubscribed(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        m0.memory.capacity = m0.memory.used / 2
        with pytest.raises(InvariantViolation,
                           match="m0 DRAM oversubscribed"):
            checker.check()

    def test_rate_outside_demand(self, qs):
        checker = checked(qs)
        item = qs.machines[0].cpu.sched.submit(work=10.0, demand=1.0)
        qs.run(until=0.001)
        item._rate = -0.5
        with pytest.raises(InvariantViolation,
                           match=r"rate -0.5 outside \[0, demand=1.0\]"):
            checker.check()

    def test_rates_exceed_capacity(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched  # 8 cores
        a = sched.submit(work=10.0, demand=6.0)
        b = sched.submit(work=10.0, demand=6.0)
        qs.run(until=0.001)
        a._rate = b._rate = 6.0
        sched._load = 12.0  # the cache agrees with the bad rates
        with pytest.raises(InvariantViolation,
                           match="rates sum to 12.0 > capacity 8.0"):
            checker.check()

    def test_lower_class_served_while_higher_hungry(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched
        high = sched.submit(work=10.0, demand=8.0, priority=0)
        low = sched.submit(work=10.0, demand=8.0, priority=1)
        qs.run(until=0.001)
        high._rate = low._rate = 4.0  # the sum still matches the cache
        with pytest.raises(InvariantViolation,
                           match="class 1 served while class 0 is hungry"):
            checker.check()

    def test_oracle_divergence(self, qs):
        checker = checked(qs, oracle=True)
        sched = qs.machines[0].cpu.sched
        a = sched.submit(work=10.0, demand=8.0)
        b = sched.submit(work=10.0, demand=8.0)
        qs.run(until=0.001)
        a._rate, b._rate = 6.0, 2.0  # one class, same total, not max-min
        with pytest.raises(InvariantViolation, match="oracle divergence"):
            checker.check()

    def test_violation_surfaces_through_run(self, qs):
        """Attached checker fails the run at the first bad event."""
        checked(qs)
        m0 = qs.machines[0]
        qs.sim.call_at(0.01, m0.memory.reserve, 64 * MiB)
        with pytest.raises(InvariantViolation):
            qs.run(until=0.02)


class TestGateCorruptionDetected:
    """Invariant 4 beyond the timeout: status/gate agreement."""

    def test_dead_proclet_still_registered(self, qs):
        checker = checked(qs)
        qs.spawn_memory().proclet._status = ProcletStatus.DEAD
        with pytest.raises(InvariantViolation, match="DEAD but still"):
            checker.check()

    def test_migrating_without_gate(self, qs):
        checker = checked(qs)
        qs.spawn_memory().proclet._status = ProcletStatus.MIGRATING
        with pytest.raises(InvariantViolation, match="without a gate"):
            checker.check()

    def test_migrating_behind_open_gate(self, qs):
        checker = checked(qs)
        proclet = qs.spawn_memory().proclet
        proclet._status = ProcletStatus.MIGRATING
        proclet._migration_gate = qs.sim.event()
        proclet._migration_gate.succeed()
        with pytest.raises(InvariantViolation, match="already-open gate"):
            checker.check()


class TestRecoveryCorruptionDetected:
    """Invariants 5-7: incarnations, checkpoint bytes, convergence."""

    def test_live_and_lost_at_once(self, qs):
        checker = checked(qs)
        ref = qs.spawn_memory()
        qs.runtime._lost.add(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match=f"#{ref.proclet_id} is both live and lost "
                                 r"\(double incarnation\)"):
            checker.check()

    def test_incarnation_regression(self, qs):
        checker = checked(qs)
        ref = qs.spawn_memory()
        qs.runtime._incarnations[ref.proclet_id] = 2
        checker.check()  # records the high-water mark
        qs.runtime._incarnations[ref.proclet_id] = 1
        with pytest.raises(InvariantViolation,
                           match="incarnation regressed 2 -> 1"):
            checker.check()

    def test_checkpoint_ledger_mismatch(self, qs):
        recovery = qs.enable_recovery()
        checker = checked(qs)
        checker.check()
        recovery.checkpoint_bytes_held += 1 * MiB  # bytes held nowhere
        with pytest.raises(InvariantViolation,
                           match="checkpoint bytes not conserved"):
            checker.check()

    def test_convergence_error(self, qs):
        recovery = qs.enable_recovery()
        checker = checked(qs)
        recovery.convergence_errors.append("k0: want 1, got 2")
        with pytest.raises(InvariantViolation,
                           match="recovered state diverged: k0"):
            checker.check()


class TestCloneCorruptionDetected:
    """Invariant 8: clone-set hygiene."""

    def test_two_winners(self, qs):
        checker = checked(qs)
        qs.runtime._clone_calls.append(clone_call(
            attempt(0, won=True), attempt(1, won=True), decided=False))
        with pytest.raises(InvariantViolation, match="has 2 winners"):
            checker.check()

    def test_decided_ok_without_winner(self, qs):
        checker = checked(qs)
        done = SimpleNamespace(triggered=True, ok=True)
        qs.runtime._clone_calls.append(clone_call(
            attempt(0), attempt(1), process=done))
        with pytest.raises(InvariantViolation,
                           match="without a winning attempt"):
            checker.check()

    def test_loser_still_alive(self, qs):
        checker = checked(qs)
        qs.runtime._clone_calls.append(clone_call(
            attempt(0, won=True), attempt(1, triggered=False)))
        with pytest.raises(InvariantViolation,
                           match="losing clone 1 still alive"):
            checker.check()

    def test_leaked_loser_work_item(self, qs):
        checker = checked(qs)
        item = SimpleNamespace(active=True, name="clone-work")
        qs.runtime._clone_calls.append(clone_call(
            attempt(0, won=True), attempt(1, work_items=[item])))
        with pytest.raises(InvariantViolation,
                           match="leaked active work item 'clone-work'"):
            checker.check()

    def test_loser_inside_decision_instant_is_legal(self, qs):
        checker = checked(qs)
        qs.runtime._clone_calls.append(clone_call(
            attempt(0, won=True), attempt(1, triggered=False),
            decided_at=qs.sim.now))
        checker.check()


class TestReshardCorruptionDetected:
    """Invariant 9: routable keys, range agreement, no orphans."""

    def test_settled_table_passes(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        assert m.shard_count == 3
        checker.check()

    def test_empty_table(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        m.shards.clear()
        m._los.clear()
        with pytest.raises(InvariantViolation,
                           match="kv: empty routing table"):
            checker.check()

    def test_lo_array_length_mismatch(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        m._los.append("zzz")
        with pytest.raises(InvariantViolation,
                           match="lo array has 4 entries for 3 shards"):
            checker.check()

    def test_lo_array_value_mismatch(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        m._los[2] = "k0007~"
        with pytest.raises(InvariantViolation,
                           match="shard 2 lower bound .* != lo array"):
            checker.check()

    def test_bounds_out_of_order(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        s1, s2 = m.shards[1], m.shards[2]
        s1.lo, s2.lo = s2.lo, s1.lo
        m._los[1], m._los[2] = m._los[2], m._los[1]
        with pytest.raises(InvariantViolation,
                           match="lower bounds out of order at 2"):
            checker.check()

    def test_first_shard_not_bottom(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        m.shards[0].lo = m._los[0] = "a"
        with pytest.raises(InvariantViolation,
                           match="first shard starts at 'a', not BOTTOM"):
            checker.check()

    def test_range_disagreement(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        m.shards[1].proclet.range_hi = "zzz"
        with pytest.raises(InvariantViolation,
                           match="enforced range .* disagrees with the "
                                 "routing table"):
            checker.check()

    def test_destroyed_entry_unroutable(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        victim = m.shards[1].ref
        qs.runtime.destroy(victim)  # outside any reshard op
        with pytest.raises(InvariantViolation,
                           match=f"entry #{victim.proclet_id} is destroyed "
                                 r"but not lost to a machine failure "
                                 r"\(unroutable"):
            checker.check()

    def test_destroyed_donor_under_active_op_unroutable(self, qs):
        """An active reshard op does not excuse a destroyed table entry:
        the protocol retires a merge donor from the table before it
        destroys it."""
        checker = checked(qs)
        m = sharded_map(qs)
        donor, survivor = m.shards[1].ref, m.shards[0].ref
        ledger = qs.runtime.reshard_ledger
        op = ledger.begin("merge", m, donor.proclet_id)
        ledger.add_child(op, survivor.proclet_id)
        qs.runtime.destroy(donor)  # still in the table
        with pytest.raises(InvariantViolation,
                           match=f"entry #{donor.proclet_id} is destroyed "
                                 r"but not lost"):
            checker.check()

    def test_lost_entry_is_legal(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        qs.runtime._lost.add(m.shards[1].ref.proclet_id)
        qs.runtime.destroy(m.shards[1].ref)
        checker.check()

    def test_orphaned_child(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        orphan = qs.spawn_memory(name="orphan").proclet
        orphan.shard_owner = m
        with pytest.raises(InvariantViolation,
                           match="live shard orphan is missing from the "
                                 r"routing table .*\(orphaned child shard\)"):
            checker.check()

    def test_protected_child_is_legal(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        child = qs.spawn_memory(name="child")
        child.proclet.shard_owner = m
        ledger = qs.runtime.reshard_ledger
        op = ledger.begin("split", m, m.shards[0].ref.proclet_id)
        ledger.add_child(op, child.proclet_id)
        checker.check()
        ledger.abort(op, "test")
        with pytest.raises(InvariantViolation, match="orphaned child"):
            checker.check()
