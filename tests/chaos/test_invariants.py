"""Tests for the invariant checker: it passes on healthy runs and
catches deliberately corrupted state.

Every corruption class runs twice: as written, through the full pass
(:meth:`InvariantChecker.check`), and through its ``...Incrementally``
twin, through the incremental pass the observer runs after each event.
Each test settles the checker on the healthy state first, so the
incremental pass sees only what the test touches afterwards.  A
corruption made through a public mutation needs nothing more; a direct
poke of private state then marks the entity through :func:`fire`, the
hook its program mutation point reaches.
"""

import pytest

from repro.chaos import InvariantChecker, InvariantViolation
from repro.chaos.invariants import FULL_PASS_EVERY
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


def fire(checker, listeners, *args):
    """Deliver *args* to the checker's subscription on *listeners* (a
    locator, memory, scheduler, runtime or ledger listener list), as the
    program's mutation point would after a write."""
    hooked = [fn for owner, fn in checker._hooks if owner is listeners]
    assert hooked, "the checker does not subscribe to this hook"
    for fn in hooked:
        fn(*args)


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

    def test_every_event_checked_with_periodic_full_pass(self, qs,
                                                         monkeypatch):
        checker = checked(qs)
        full = []
        monkeypatch.setattr(checker, "check",
                            lambda: full.append(checker.events_seen))
        pool = qs.compute_pool(initial_members=2)
        while checker.events_seen < 2 * FULL_PASS_EVERY:
            pool.run(0.001)
            qs.run(until=qs.sim.now + 0.01)
        assert checker.checks + len(full) == checker.events_seen
        assert full == [FULL_PASS_EVERY * (i + 1) for i in range(len(full))]
        assert len(full) == checker.events_seen // FULL_PASS_EVERY

    def test_detach_stops_checking(self, qs):
        checker = checked(qs)
        qs.compute_pool(initial_members=2).run(0.001)
        qs.run(until=0.05)
        checker.detach()
        n = checker.checks
        assert n > 0
        qs.run(until=0.06)
        assert checker.checks == n  # detached checkers stop counting
        assert checker._hooks == []
        assert checker._on_locate not in qs.runtime.locator._listeners
        assert all(checker._dirty_scheds.add not in m.cpu.sched._observers
                   for m in qs.machines)

    def test_oracle_mode_runs_comparisons(self, qs):
        checker = checked(qs, oracle=True)
        qs.compute_pool(initial_members=2).run(0.005)
        qs.run(until=0.05)
        assert checker.oracle_comparisons > 0

    def test_replaced_gate_restarts_the_clock(self, qs):
        checker = checked(qs, gate_timeout=0.01)
        proclet = qs.spawn_memory().proclet
        qs.runtime.gate(proclet, "migration")
        checker.check()
        qs.sim.run(until=0.008)
        # Gate 1 opens and gate 2 closes at once: gate 2's window starts
        # its own clock, not gate 1's.
        qs.runtime.ungate(proclet)
        qs.runtime.gate(proclet, "migration")
        qs.sim.run(until=0.015)
        checker.check()
        checker._on_event()
        qs.sim.run(until=0.03)
        with pytest.raises(InvariantViolation, match="gated for 0.022s"):
            checker.check()

    def test_opened_gate_is_forgotten(self, qs):
        checker = checked(qs, gate_timeout=0.01)
        proclet = qs.spawn_memory().proclet
        qs.runtime.gate(proclet, "migration")
        checker.check()
        assert list(qs.runtime.gates) == [proclet.id]
        qs.sim.run(until=0.005)
        qs.runtime.ungate(proclet)
        assert qs.runtime.gates == {}
        assert qs.runtime.gate_windows == {"migration": [0.005]}
        qs.sim.run(until=0.1)
        checker.check()
        checker._on_event()


class FullPass:
    """Runs a corruption class's tests through the full pass."""

    @staticmethod
    def run_pass(checker):
        checker.check()

    settle = run_pass


class IncrementalPass:
    """Runs a corruption class's tests through the incremental pass."""

    @staticmethod
    def run_pass(checker):
        # What the observer runs after an event, on a count that does
        # not fall on the periodic full pass.
        assert (checker.events_seen + 1) % FULL_PASS_EVERY
        checker._on_event()

    settle = run_pass


class TestCorruptionDetected(FullPass):
    def test_double_placement(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        self.settle(checker)
        loc = qs.runtime.locator
        loc._by_machine.setdefault(m1, set()).add(ref.proclet_id)
        fire(checker, loc._listeners, ref.proclet_id, m0, m1)
        with pytest.raises(InvariantViolation, match="double-placed|disagree"):
            self.run_pass(checker)

    def test_locator_proclet_disagreement(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        self.settle(checker)
        ref.proclet._machine = m1  # locator still says m0
        fire(checker, qs.runtime.locator._listeners, ref.proclet_id, m0, m1)
        with pytest.raises(InvariantViolation, match="locator says"):
            self.run_pass(checker)

    def test_memory_leak_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        self.settle(checker)
        m0.memory.reserve(64 * MiB)  # bytes nobody accounts for
        with pytest.raises(InvariantViolation, match="DRAM ledger"):
            self.run_pass(checker)

    def test_memory_underaccounting_detected(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        self.settle(checker)
        m0.memory.release(32 * 1024)  # bytes released out of thin air
        with pytest.raises(InvariantViolation, match="DRAM ledger"):
            self.run_pass(checker)

    def test_crashed_machine_with_residual_memory(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.runtime.fail_machine(m0)
        self.settle(checker)
        m0.memory.used = 10.0  # corrupt the wiped ledger
        fire(checker, m0.memory._listeners, m0.memory)
        with pytest.raises(InvariantViolation, match="crashed") as exc:
            self.run_pass(checker)
        # The message ends with the decisions that led to the bad state.
        (crash,) = qs.runtime.decisions
        assert "machine m0 crashed" in str(crash)
        assert str(exc.value).endswith(f"\nrecent decisions:\n  {crash}")

    def test_fluid_rate_corruption_detected(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched
        item = sched.submit(work=10.0, demand=1.0)
        qs.run(until=0.001)
        self.settle(checker)
        item._rate = 1e9  # corrupt: far beyond demand and capacity
        fire(checker, sched._observers, sched)
        with pytest.raises(InvariantViolation, match="rate|load"):
            self.run_pass(checker)

    def test_stale_load_cache_detected(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched
        sched.submit(work=10.0, demand=2.0)
        qs.run(until=0.001)
        self.settle(checker)
        sched._load = 123.0  # corrupt the cached aggregate
        fire(checker, sched._observers, sched)
        with pytest.raises(InvariantViolation, match="cached load"):
            self.run_pass(checker)

    def test_permanently_gated_proclet_detected(self, qs):
        checker = checked(qs, gate_timeout=0.01)
        ref = qs.spawn_memory()
        proclet = ref.proclet
        self.settle(checker)
        # Simulate a stuck migration: gate never opens.
        qs.runtime.gate(proclet, "migration")
        self.run_pass(checker)
        qs.sim.run(until=0.1)
        with pytest.raises(InvariantViolation, match="gated"):
            self.run_pass(checker)

    def test_locator_maps_dead_proclet(self, qs):
        checker = checked(qs)
        ref = qs.spawn_memory()
        machine = ref.proclet.machine
        self.settle(checker)
        del qs.runtime._proclets[ref.proclet_id]
        fire(checker, qs.runtime.locator._listeners, ref.proclet_id,
             machine, None)
        with pytest.raises(InvariantViolation,
                           match=f"locator maps dead proclet "
                                 f"#{ref.proclet_id}"):
            self.run_pass(checker)

    def test_residency_sets_miss_table_entry(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        ref = qs.spawn_memory(machine=m0)
        self.settle(checker)
        qs.runtime.locator._by_machine[m0].discard(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match=r"table and residency sets disagree: "
                                 rf"\[{ref.proclet_id}\]"):
            self.run_pass(checker)

    def test_live_proclet_missing_from_locator(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        ref = qs.spawn_memory(machine=m0, name="ghost")
        self.settle(checker)
        loc = qs.runtime.locator
        del loc._table[ref.proclet_id]
        loc._by_machine[m0].discard(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match="live proclet ghost missing from locator"):
            self.run_pass(checker)

    def test_residency_set_disagrees_with_table(self, qs):
        checker = checked(qs)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        self.settle(checker)
        loc = qs.runtime.locator
        loc._by_machine[m0].discard(ref.proclet_id)
        loc._by_machine.setdefault(m1, set()).add(ref.proclet_id)
        fire(checker, loc._listeners, ref.proclet_id, m0, m1)
        with pytest.raises(InvariantViolation,
                           match=f"#{ref.proclet_id} in m1's residency set "
                                 f"but table says m0"):
            self.run_pass(checker)

    def test_crashed_machine_still_hosting(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        self.settle(checker)
        m0.up = False  # down without the crash teardown
        m0.memory.used = 0.0
        fire(checker, qs.runtime._failure_listeners, m0, [])
        with pytest.raises(InvariantViolation,
                           match="crashed m0 still hosts proclets"):
            self.run_pass(checker)

    def test_dram_oversubscribed(self, qs):
        checker = checked(qs)
        m0 = qs.machines[0]
        qs.spawn_memory(machine=m0)
        self.settle(checker)
        m0.memory.capacity = m0.memory.used / 2
        fire(checker, m0.memory._listeners, m0.memory)
        with pytest.raises(InvariantViolation,
                           match="m0 DRAM oversubscribed"):
            self.run_pass(checker)

    def test_rate_outside_demand(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched
        item = sched.submit(work=10.0, demand=1.0)
        qs.run(until=0.001)
        self.settle(checker)
        item._rate = -0.5
        fire(checker, sched._observers, sched)
        with pytest.raises(InvariantViolation,
                           match=r"rate -0.5 outside \[0, demand=1.0\]"):
            self.run_pass(checker)

    def test_rates_exceed_capacity(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched  # 8 cores
        a = sched.submit(work=10.0, demand=6.0)
        b = sched.submit(work=10.0, demand=6.0)
        qs.run(until=0.001)
        self.settle(checker)
        a._rate = b._rate = 6.0
        sched._load = 12.0  # the cache agrees with the bad rates
        fire(checker, sched._observers, sched)
        with pytest.raises(InvariantViolation,
                           match="rates sum to 12.0 > capacity 8.0"):
            self.run_pass(checker)

    def test_lower_class_served_while_higher_hungry(self, qs):
        checker = checked(qs)
        sched = qs.machines[0].cpu.sched
        high = sched.submit(work=10.0, demand=8.0, priority=0)
        low = sched.submit(work=10.0, demand=8.0, priority=1)
        qs.run(until=0.001)
        self.settle(checker)
        high._rate = low._rate = 4.0  # the sum still matches the cache
        fire(checker, sched._observers, sched)
        with pytest.raises(InvariantViolation,
                           match="class 1 served while class 0 is hungry"):
            self.run_pass(checker)

    def test_oracle_divergence(self, qs):
        checker = checked(qs, oracle=True)
        sched = qs.machines[0].cpu.sched
        a = sched.submit(work=10.0, demand=8.0)
        b = sched.submit(work=10.0, demand=8.0)
        qs.run(until=0.001)
        self.settle(checker)
        a._rate, b._rate = 6.0, 2.0  # one class, same total, not max-min
        fire(checker, sched._observers, sched)
        with pytest.raises(InvariantViolation, match="oracle divergence"):
            self.run_pass(checker)

    def test_violation_surfaces_through_run(self, qs):
        """Attached checker fails the run at the first bad event."""
        checked(qs)
        m0 = qs.machines[0]
        qs.sim.call_at(0.01, m0.memory.reserve, 64 * MiB)
        with pytest.raises(InvariantViolation):
            qs.run(until=0.02)


class TestGateCorruptionDetected(FullPass):
    """Invariant 4 beyond the timeout: status/gate agreement."""

    def test_dead_proclet_still_registered(self, qs):
        checker = checked(qs)
        proclet = qs.spawn_memory().proclet
        self.settle(checker)
        proclet._status = ProcletStatus.DEAD
        fire(checker, qs.runtime._proclet_state_listeners, proclet.id)
        with pytest.raises(InvariantViolation, match="DEAD but still"):
            self.run_pass(checker)

    def test_migrating_without_gate(self, qs):
        checker = checked(qs)
        proclet = qs.spawn_memory().proclet
        self.settle(checker)
        proclet._status = ProcletStatus.MIGRATING
        fire(checker, qs.runtime._proclet_state_listeners, proclet.id)
        with pytest.raises(InvariantViolation, match="without a gate"):
            self.run_pass(checker)

    def test_migrating_behind_open_gate(self, qs):
        checker = checked(qs)
        proclet = qs.spawn_memory().proclet
        self.settle(checker)
        qs.runtime.gate(proclet, "migration").succeed()
        with pytest.raises(InvariantViolation, match="already-open gate"):
            self.run_pass(checker)

    def test_migrating_without_ledger_entry(self, qs):
        """A hand-written MIGRATING status behind a gate the runtime's
        gate ledger does not hold."""
        checker = checked(qs)
        proclet = qs.spawn_memory().proclet
        self.settle(checker)
        proclet._status = ProcletStatus.MIGRATING
        proclet._migration_gate = qs.sim.event()
        fire(checker, qs.runtime._proclet_state_listeners, proclet.id)
        with pytest.raises(InvariantViolation, match="did not open"):
            self.run_pass(checker)

    def test_running_with_open_window(self, qs):
        checker = checked(qs)
        proclet = qs.spawn_memory().proclet
        self.settle(checker)
        qs.runtime.gate(proclet, "migration")
        proclet._status = ProcletStatus.RUNNING
        with pytest.raises(InvariantViolation, match="open gate window"):
            self.run_pass(checker)


class TestRecoveryCorruptionDetected(FullPass):
    """Invariants 5-7: incarnations, checkpoint bytes, convergence."""

    def test_live_and_lost_at_once(self, qs):
        checker = checked(qs)
        ref = qs.spawn_memory()
        self.settle(checker)
        qs.runtime._lost.add(ref.proclet_id)
        with pytest.raises(InvariantViolation,
                           match=f"#{ref.proclet_id} is both live and lost "
                                 r"\(double incarnation\)"):
            self.run_pass(checker)

    def test_incarnation_regression(self, qs):
        checker = checked(qs)
        ref = qs.spawn_memory()
        self.settle(checker)
        pid, machine = ref.proclet_id, ref.proclet.machine
        located = qs.runtime.locator._listeners
        qs.runtime._incarnations[pid] = 2
        fire(checker, located, pid, None, machine)
        self.run_pass(checker)  # records the high-water mark
        qs.runtime._incarnations[pid] = 1
        fire(checker, located, pid, None, machine)
        with pytest.raises(InvariantViolation,
                           match="incarnation regressed 2 -> 1"):
            self.run_pass(checker)

    def test_checkpoint_ledger_mismatch(self, qs):
        recovery = qs.enable_recovery()
        checker = checked(qs)
        self.settle(checker)
        recovery.checkpoint_bytes_held += 1 * MiB  # bytes held nowhere
        fire(checker, qs.runtime._reservation_listeners, qs.machines[1])
        with pytest.raises(InvariantViolation,
                           match="checkpoint bytes not conserved"):
            self.run_pass(checker)

    def test_convergence_error(self, qs):
        recovery = qs.enable_recovery()
        checker = checked(qs)
        self.settle(checker)
        recovery.convergence_errors.append("k0: want 1, got 2")
        with pytest.raises(InvariantViolation,
                           match="recovered state diverged: k0"):
            self.run_pass(checker)


class TestReshardCorruptionDetected(FullPass):
    """Invariant 8: routable keys, range agreement, no orphans."""

    def test_settled_table_passes(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        assert m.shard_count == 3
        self.run_pass(checker)

    def test_empty_table(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        m.shards.clear()
        m._los.clear()
        fire(checker, qs.runtime.reshard_ledger._listeners, m, ())
        with pytest.raises(InvariantViolation,
                           match="kv: empty routing table"):
            self.run_pass(checker)

    def test_lo_array_length_mismatch(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        m._los.append("zzz")
        fire(checker, qs.runtime.reshard_ledger._listeners, m, ())
        with pytest.raises(InvariantViolation,
                           match="lo array has 4 entries for 3 shards"):
            self.run_pass(checker)

    def test_lo_array_value_mismatch(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        m._los[2] = "k0007~"
        fire(checker, qs.runtime.reshard_ledger._listeners, m, ())
        with pytest.raises(InvariantViolation,
                           match="shard 2 lower bound .* != lo array"):
            self.run_pass(checker)

    def test_bounds_out_of_order(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        s1, s2 = m.shards[1], m.shards[2]
        s1.lo, s2.lo = s2.lo, s1.lo
        m._los[1], m._los[2] = m._los[2], m._los[1]
        fire(checker, qs.runtime.reshard_ledger._listeners, m, ())
        with pytest.raises(InvariantViolation,
                           match="lower bounds out of order at 2"):
            self.run_pass(checker)

    def test_first_shard_not_bottom(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        m.shards[0].lo = m._los[0] = "a"
        fire(checker, qs.runtime.reshard_ledger._listeners, m, ())
        with pytest.raises(InvariantViolation,
                           match="first shard starts at 'a', not BOTTOM"):
            self.run_pass(checker)

    def test_range_disagreement(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        m.shards[1].proclet.range_hi = "zzz"
        fire(checker, qs.runtime.reshard_ledger._listeners, m, ())
        with pytest.raises(InvariantViolation,
                           match="enforced range .* disagrees with the "
                                 "routing table"):
            self.run_pass(checker)

    def test_destroyed_entry_unroutable(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        victim = m.shards[1].ref
        qs.runtime.destroy(victim)  # outside any reshard op
        with pytest.raises(InvariantViolation,
                           match=f"entry #{victim.proclet_id} is destroyed "
                                 r"but not lost to a machine failure "
                                 r"\(unroutable"):
            self.run_pass(checker)

    def test_destroyed_donor_under_active_op_unroutable(self, qs):
        """An active reshard op does not excuse a destroyed table entry:
        the protocol retires a merge donor from the table before it
        destroys it."""
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        donor, survivor = m.shards[1].ref, m.shards[0].ref
        ledger = qs.runtime.reshard_ledger
        op = ledger.begin("merge", m, donor.proclet_id)
        ledger.add_child(op, survivor.proclet_id)
        qs.runtime.destroy(donor)  # still in the table
        with pytest.raises(InvariantViolation,
                           match=f"entry #{donor.proclet_id} is destroyed "
                                 r"but not lost"):
            self.run_pass(checker)

    def test_lost_entry_is_legal(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        qs.runtime._lost.add(m.shards[1].ref.proclet_id)
        qs.runtime.destroy(m.shards[1].ref)
        self.run_pass(checker)

    def test_orphaned_child(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        orphan = qs.spawn_memory(name="orphan").proclet
        orphan.shard_owner = m
        fire(checker, qs.runtime.locator._listeners, orphan.id, None,
             orphan.machine)
        with pytest.raises(InvariantViolation,
                           match="live shard orphan is missing from the "
                                 r"routing table .*\(orphaned child shard\)"):
            self.run_pass(checker)

    def test_protected_child_is_legal(self, qs):
        checker = checked(qs)
        m = sharded_map(qs)
        self.settle(checker)
        child = qs.spawn_memory(name="child")
        child.proclet.shard_owner = m
        ledger = qs.runtime.reshard_ledger
        op = ledger.begin("split", m, m.shards[0].ref.proclet_id)
        ledger.add_child(op, child.proclet_id)
        self.run_pass(checker)
        ledger.abort(op, "test")
        with pytest.raises(InvariantViolation, match="orphaned child"):
            self.run_pass(checker)


class TestCorruptionDetectedIncrementally(IncrementalPass,
                                         TestCorruptionDetected):
    pass


class TestGateCorruptionDetectedIncrementally(IncrementalPass,
                                             TestGateCorruptionDetected):
    pass


class TestRecoveryCorruptionDetectedIncrementally(
        IncrementalPass, TestRecoveryCorruptionDetected):
    pass


class TestReshardCorruptionDetectedIncrementally(
        IncrementalPass, TestReshardCorruptionDetected):
    pass
