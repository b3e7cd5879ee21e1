"""RecoveryManager mechanics: retry budget, shedding, determinism."""

import pytest

from repro import MachineSpec
from repro.apps import ElasticCache
from repro.chaos import InvariantChecker
from repro.cluster import Priority
from repro.ft import RecoveryConfig, RecoveryPolicy
from repro.runtime import ProcletLost
from repro.units import GiB, MiB

from ..conftest import make_qs

CFG = RecoveryConfig(heartbeat_interval=1e-3, suspect_after=2,
                     confirm_after=4, checkpoint_interval=10e-3,
                     mirror_interval=5e-3)


def tiny_qs(machines):
    return make_qs(machines=machines, enable_local_scheduler=False,
                   enable_global_scheduler=False, enable_split_merge=False)


class TestRetryBudget:
    def test_budget_exhaustion_surfaces_proclet_lost(self):
        """With no machine able to host the recovery, a covered call
        retries its full budget and then fails with ProcletLost."""
        qs = tiny_qs([MachineSpec(name="m0", cores=4, dram_bytes=2 * GiB),
                      MachineSpec(name="m1", cores=4, dram_bytes=2 * GiB)])
        cfg = RecoveryConfig(heartbeat_interval=1e-3, suspect_after=2,
                             confirm_after=4, retry_budget=3,
                             retry_backoff=1e-3)
        manager = qs.enable_recovery(cfg)
        ref = qs.spawn_memory(machine=qs.machines[0], name="doomed")
        qs.run(until_event=ref.call("mp_put", 0, 1 * MiB, "x"))
        manager.protect(ref, RecoveryPolicy.RESTART)
        # Kill every machine: recovery has nowhere to go.
        qs.runtime.fail_machine(qs.machines[0])
        qs.runtime.fail_machine(qs.machines[1])
        ev = ref.call("mp_get", 0)
        with pytest.raises(ProcletLost):
            qs.run(until_event=ev, until=2.0)
        assert qs.metrics.counter("ft.call_retries").total == 3

    def test_retry_delay_is_none_for_uncovered_pids(self):
        qs = tiny_qs(None)
        manager = qs.enable_recovery(CFG)
        assert manager.retry_delay(12345, 0, None) is None

    def test_retry_delay_backs_off_exponentially(self):
        qs = tiny_qs(None)
        cfg = RecoveryConfig(retry_backoff=1e-3,
                             retry_backoff_multiplier=2.0,
                             retry_jitter=0.0)
        manager = qs.enable_recovery(cfg)
        ref = qs.spawn_memory(name="s")
        manager.protect(ref, RecoveryPolicy.RESTART)
        pid = ref.proclet_id
        d0 = manager.retry_delay(pid, 0, None)
        d1 = manager.retry_delay(pid, 1, None)
        d2 = manager.retry_delay(pid, 2, None)
        assert d1 == pytest.approx(2 * d0)
        assert d2 == pytest.approx(4 * d0)
        assert manager.retry_delay(pid, cfg.retry_budget, None) is None


class TestShedding:
    def test_low_priority_victim_shed_for_high_priority_recovery(self):
        """When no survivor can hold the recovering proclet, strictly
        lower-priority registrations are destroyed to make room."""
        qs = tiny_qs([
            MachineSpec(name="m0", cores=4, dram_bytes=4 * GiB),
            MachineSpec(name="m1", cores=4, dram_bytes=1 * GiB),
        ])
        manager = qs.enable_recovery(CFG)
        m0, m1 = qs.machines
        victim = qs.spawn_memory(machine=m1, name="victim")
        qs.run(until_event=victim.call("mp_put", 0, 300 * MiB, "bulk"))
        manager.protect(victim, RecoveryPolicy.RESTART,
                        priority=Priority.LOW)
        precious = qs.spawn_memory(machine=m0, name="precious")
        qs.run(until_event=precious.call("mp_put", 0, 500 * MiB, "gold"))
        manager.protect(precious, RecoveryPolicy.CHECKPOINT,
                        priority=Priority.HIGH)
        # The 500 MiB snapshot copy takes ~42 ms on a 100 Gb/s NIC;
        # wait long enough for it to commit onto m1 before the kill.
        qs.run(until=qs.sim.now + 0.2)
        assert manager.checkpoint_bytes_held > 0
        qs.runtime.fail_machine(m0)
        qs.run(until=qs.sim.now + 0.3)
        assert manager.sheds == 1
        assert qs.runtime._proclets.get(victim.proclet_id) is None
        assert not qs.runtime.is_lost(precious.proclet_id)
        assert qs.run(until_event=precious.call("mp_get", 0)) == "gold"

    def test_equal_priority_is_never_shed(self):
        qs = tiny_qs([
            MachineSpec(name="m0", cores=4, dram_bytes=4 * GiB),
            MachineSpec(name="m1", cores=4, dram_bytes=1 * GiB),
        ])
        manager = qs.enable_recovery(CFG)
        m0, m1 = qs.machines
        victim = qs.spawn_memory(machine=m1, name="peer")
        qs.run(until_event=victim.call("mp_put", 0, 600 * MiB, "bulk"))
        manager.protect(victim, RecoveryPolicy.RESTART,
                        priority=Priority.NORMAL)
        big = qs.spawn_memory(machine=m0, name="big")
        qs.run(until_event=big.call("mp_put", 0, 300 * MiB, "x"))
        manager.protect(big, RecoveryPolicy.CHECKPOINT,
                        priority=Priority.NORMAL)
        qs.run(until=qs.sim.now + 0.05)
        qs.runtime.fail_machine(m0)
        qs.run(until=qs.sim.now + 0.3)
        # No strictly-lower-priority victims exist: nothing is shed and
        # the recovery is recorded as failed (no capacity).
        assert manager.sheds == 0
        assert manager.failed_recoveries >= 1
        assert qs.runtime._proclets.get(victim.proclet_id) is not None


class TestRecoveredWiring:
    def test_recovered_shard_and_member_keep_their_owner(self):
        """A recovered incarnation is its corpse's twin: a cache shard
        still answers for its cache and a pool member still reports its
        tasks to its pool."""
        qs = tiny_qs([MachineSpec(name=f"m{i}", cores=4,
                                  dram_bytes=4 * GiB) for i in range(3)])
        checker = InvariantChecker(qs.runtime).attach(qs.sim)
        manager = qs.enable_recovery(CFG)
        cache = ElasticCache(qs, budget_bytes=64 * MiB)
        qs.run(until_event=cache.put("k", "V", 1 * MiB))
        shard = cache.shards[0].ref
        victim = shard.machine
        pool = qs.compute_pool(name="pool", initial_members=2,
                               machine=victim)
        manager.protect(shard, RecoveryPolicy.CHECKPOINT)
        for ref in pool.members:
            manager.protect(ref, RecoveryPolicy.RESTART)
        # Let a checkpoint of the shard commit before the kill.
        qs.run(until=qs.sim.now + 0.05)
        assert manager.checkpoint_bytes_held > 0
        qs.runtime.fail_machine(victim)
        qs.run(until=qs.sim.now + 0.2)
        assert manager.recoveries == {"checkpoint": 1, "restart": 2}
        assert qs.run(until_event=cache.get("k")) == "V"
        assert cache.hits == 1
        done = [pool.run(1e-3) for _ in range(4)]
        qs.run(until_event=qs.sim.all_of(done))
        assert pool.total_done == 4
        assert shard.proclet.shard_owner is cache
        assert all(ref.proclet.shard_owner is pool for ref in pool.members)
        assert checker.checks > 0


class TestDeterminism:
    @staticmethod
    def _scenario():
        qs = tiny_qs([MachineSpec(name=f"m{i}", cores=4,
                                  dram_bytes=4 * GiB) for i in range(3)])
        manager = qs.enable_recovery(CFG)
        refs = []
        for k in range(4):
            ref = qs.spawn_memory(machine=qs.machines[k % 3],
                                  name=f"s{k}")
            qs.run(until_event=ref.call("mp_put", 0, 5 * MiB, k))
            manager.protect(ref, RecoveryPolicy.CHECKPOINT
                            if k % 2 else RecoveryPolicy.REPLICATE)
            refs.append(ref)
        qs.run(until=0.1)
        qs.runtime.fail_machine(qs.machines[0])
        qs.run(until=0.4)
        return (qs.sim.now,
                dict(manager.recoveries),
                manager.failed_recoveries,
                qs.metrics.counter("ft.checkpoints").total,
                qs.metrics.counter("ft.mirror.bytes").total,
                tuple(qs.metrics.samples("ft.mttr")))

    def test_same_seed_same_trajectory(self):
        assert self._scenario() == self._scenario()


class TestStats:
    def test_record_recovery_stats_gauges(self):
        qs = tiny_qs(None)
        manager = qs.enable_recovery(CFG)
        ref = qs.spawn_memory(machine=qs.machines[0], name="s")
        qs.run(until_event=ref.call("mp_put", 0, 1 * MiB, "x"))
        manager.protect(ref, RecoveryPolicy.RESTART)
        qs.runtime.fail_machine(qs.machines[0])
        qs.run(until=0.2)
        stats = qs.metrics.record_stats(manager, "ft")
        assert stats["confirms"] == 1
        assert stats["recoveries"] == 1
        assert stats["recoveries.restart"] == 1
        assert qs.metrics.gauge("ft.recoveries").level == 1
        # One dict: the detector, footprint and convergence totals too.
        assert stats["machines_back"] == 0
        assert stats["standbys"] == 0
        assert stats["convergence_errors"] == 0
        assert qs.metrics.gauge("ft.checkpoint_bytes_held").level == 0
