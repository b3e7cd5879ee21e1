"""Tests for the chaos injector: faults land at the right virtual time
with the right cluster-level effect."""

import pytest

from repro.chaos import (
    ChaosInjector,
    FaultSchedule,
    MachineCrash,
    MachineRestart,
    MemoryPressure,
    MemoryPressureRelease,
    MigrationFlakiness,
    NetworkPartition,
    NicDegrade,
    NicRestore,
    PartitionHeal,
)
from repro.units import MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


def inject(qs, *faults):
    injector = ChaosInjector(qs.runtime, FaultSchedule(faults))
    injector.start()
    return injector


class TestInjection:
    def test_crash_and_restart_at_scheduled_times(self, qs):
        m0 = qs.machines[0]
        inject(qs,
               MachineCrash(at=0.010, machine="m0"),
               MachineRestart(at=0.020, machine="m0"))
        qs.run(until=0.005)
        assert m0.up
        qs.run(until=0.015)
        assert not m0.up
        qs.run(until=0.025)
        assert m0.up

    def test_last_machine_crash_is_skipped(self, qs):
        injector = inject(qs,
                          MachineCrash(at=0.01, machine="m0"),
                          MachineCrash(at=0.02, machine="m1"))
        qs.run(until=0.03)
        assert not qs.machines[0].up
        assert qs.machines[1].up  # skipped: would be the last survivor
        assert len(injector.skipped) == 1
        assert injector.machines_crashed == 1
        assert qs.metrics.counter("chaos.faults.skipped").total == 1

    def test_nic_degrade_and_restore(self, qs):
        m0 = qs.machines[0]
        nominal = m0.nic.bandwidth
        inject(qs,
               NicDegrade(at=0.01, machine="m0", fraction=0.25),
               NicRestore(at=0.02, machine="m0"))
        qs.run(until=0.015)
        assert m0.nic.tx.capacity == pytest.approx(0.25 * nominal)
        assert m0.nic.degraded_fraction == 0.25
        qs.run(until=0.025)
        assert m0.nic.tx.capacity == pytest.approx(nominal)

    def test_partition_stalls_transfers_until_heal(self, qs):
        m0, m1 = qs.machines
        inject(qs,
               NetworkPartition(at=0.0, a="m0", b="m1"),
               PartitionHeal(at=0.050, a="m0", b="m1"))
        qs.run(until=0.001)
        assert qs.cluster.fabric.is_partitioned(m0, m1)
        done = qs.cluster.fabric.transfer(m0, m1, 1 * MiB)
        qs.run(until=0.049)
        assert not done.triggered  # stalled behind the partition
        qs.run(until_event=done)
        assert qs.sim.now >= 0.050

    def test_memory_pressure_and_release(self, qs):
        m0 = qs.machines[0]
        inject(qs,
               MemoryPressure(at=0.01, machine="m0", nbytes=100 * MiB),
               MemoryPressureRelease(at=0.02, machine="m0"))
        qs.run(until=0.015)
        assert m0.memory.ballast == pytest.approx(100 * MiB)
        assert m0.memory.used >= 100 * MiB
        qs.run(until=0.025)
        assert m0.memory.ballast == 0.0

    def test_pressure_clamped_to_capacity(self, qs):
        m0 = qs.machines[0]
        inject(qs, MemoryPressure(at=0.01, machine="m0",
                                  nbytes=2 * m0.memory.capacity))
        qs.run(until=0.02)
        assert m0.memory.used <= m0.memory.capacity

    def test_flakiness_installs_migration_fault_hook(self, qs):
        inject(qs, MigrationFlakiness(at=0.01, probability=1.0,
                                      duration=0.5))
        qs.run(until=0.02)
        hook = qs.runtime.migration.fault_hook
        assert hook is not None
        assert hook(None, None) is True  # inside the flaky window
        qs.run(until=0.6)
        assert hook(None, None) is False  # window expired

    def test_faults_on_down_machine_are_noops(self, qs):
        """NIC/memory faults racing a crash must not resurrect state."""
        m0 = qs.machines[0]
        inject(qs,
               MachineCrash(at=0.01, machine="m0"),
               NicDegrade(at=0.02, machine="m0", fraction=0.5),
               MemoryPressure(at=0.02, machine="m0", nbytes=10 * MiB))
        qs.run(until=0.03)
        assert not m0.up
        assert m0.memory.used == 0.0

    def test_listener_and_metrics(self, qs):
        seen = []
        injector = ChaosInjector(qs.runtime, FaultSchedule([
            MachineCrash(at=0.01, machine="m0"),
            MachineRestart(at=0.02, machine="m0"),
        ]))
        injector.on_fault(seen.append)
        injector.start()
        qs.run(until=0.03)
        assert [type(f).__name__ for f in seen] == \
            ["MachineCrash", "MachineRestart"]
        assert qs.metrics.counter("chaos.faults").total == 2
        assert qs.metrics.counter("chaos.faults.MachineCrash").total == 1
        assert [d.category for d in qs.runtime.decisions].count("chaos") \
            == 2
        downtimes = qs.metrics.samples("chaos.downtime")
        assert downtimes == [pytest.approx(0.01)]

    def test_double_start_rejected(self, qs):
        injector = inject(qs, MachineCrash(at=0.01, machine="m0"))
        with pytest.raises(RuntimeError):
            injector.start()
