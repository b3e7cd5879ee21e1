"""Tests for the proclet migration mechanism — the heart of fungibility."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    MachineSpec,
    Priority,
    symmetric_cluster,
)
from repro.runtime import (
    MigrationConfig,
    MigrationFailed,
    NuRuntime,
    Proclet,
    ProcletStatus,
)
from repro.units import GiB, MS, MiB


class Holder(Proclet):
    def __init__(self, heap=0):
        super().__init__()
        self._initial = heap

    def on_start(self, ctx):
        if self._initial:
            ctx.alloc(self._initial)

    def ping(self, ctx):
        yield ctx.cpu(1e-7)
        return ctx.machine.name

    def long_work(self, ctx, seconds):
        yield ctx.cpu(seconds)
        return ctx.machine.name


@pytest.fixture
def rt():
    cluster = Cluster(symmetric_cluster(2, cores=8, dram_bytes=4 * GiB))
    return NuRuntime(cluster)


class TestBasicMigration:
    def test_migrate_moves_proclet_and_memory(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=10 * MiB), m0)
        rt.sim.run(until=0.001)
        used0 = m0.memory.used
        ev = rt.migrate(ref, m1)
        latency = rt.sim.run(until_event=ev)
        p = ref.proclet
        assert p.machine is m1
        assert ref.machine is m1
        assert m0.memory.used == pytest.approx(used0 - p.footprint)
        assert m1.memory.used >= p.footprint
        assert p.migrations == 1
        assert latency > 0

    def test_10mib_proclet_migrates_in_about_1ms(self, rt):
        """Calibration check against Nu's published number (§2)."""
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=10 * MiB), m0)
        rt.sim.run(until=0.001)
        latency = rt.sim.run(until_event=rt.migrate(ref, m1))
        assert 0.5 * MS < latency < 3 * MS

    def test_small_proclet_migrates_submillisecond(self, rt):
        """Fig. 1's claim: filler proclets with small state move <1ms."""
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=64 * 1024), m0)
        rt.sim.run(until=0.001)
        latency = rt.sim.run(until_event=rt.migrate(ref, m1))
        assert latency < 1 * MS

    def test_migrate_to_same_machine_is_noop(self, rt):
        m0 = rt.cluster.machine(0)
        ref = rt.spawn(Holder(), m0)
        latency = rt.sim.run(until_event=rt.migrate(ref, m0))
        assert latency == 0.0
        assert ref.proclet.migrations == 0

    def test_migration_latency_scales_with_heap(self, rt):
        m0, m1 = rt.cluster.machines

        def migrate_with_heap(heap):
            ref = rt.spawn(Holder(heap=heap), m0)
            rt.sim.run(until=rt.sim.now + 0.001)
            lat = rt.sim.run(until_event=rt.migrate(ref, m1))
            rt.sim.run(until_event=rt.migrate(ref, m0))  # move back
            rt.destroy(ref)
            return lat

        small = migrate_with_heap(1 * MiB)
        large = migrate_with_heap(100 * MiB)
        assert large > small * 10

    def test_on_migrated_hook(self, rt):
        m0, m1 = rt.cluster.machines
        calls = []

        class Hooked(Proclet):
            def on_migrated(self, src, dst):
                calls.append((src.name, dst.name))

        ref = rt.spawn(Hooked(), m0)
        rt.sim.run(until_event=rt.migrate(ref, m1))
        assert calls == [("m0", "m1")]


class TestMigrationSemantics:
    def test_invocations_block_during_migration(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=200 * MiB), m0)
        rt.sim.run(until=0.001)
        mig = rt.migrate(ref, m1)
        rt.sim.run(until=0.0015)  # migration is now in flight
        assert ref.proclet.status is ProcletStatus.MIGRATING
        call = ref.call("ping")
        rt.sim.run(until=0.003)
        assert not call.triggered  # still gated
        result = rt.sim.run(until_event=call)
        assert result == "m1"  # executed at the destination
        assert mig.triggered

    def test_inflight_cpu_work_follows_the_proclet(self, rt):
        """A thread mid-computation pauses, moves, and finishes remotely."""
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(), m0)
        call = ref.call("long_work", 0.050, caller_machine=m0)
        rt.sim.run(until=0.010)  # 10ms of 50ms done
        rt.sim.run(until_event=rt.migrate(ref, m1))
        result = rt.sim.run(until_event=call)
        assert result == "m1"
        # Total time ~ 50ms work + migration pause; well under 2x.
        assert rt.sim.now < 0.1

    def test_work_is_not_lost_nor_duplicated(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(), m0)
        call = ref.call("long_work", 0.050, caller_machine=m0)
        rt.sim.run(until=0.030)
        mig_latency = rt.sim.run(until_event=rt.migrate(ref, m1))
        rt.sim.run(until_event=call)
        # 50ms of work + migration stall, not 80ms (restart) and
        # not 50ms-minus-stall (free progress while paused).
        expected = 0.050 + mig_latency
        assert rt.sim.now == pytest.approx(expected, abs=2e-4)

    def test_migrating_twice_concurrently_fails(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        rt.migrate(ref, m1)
        rt.sim.run(until=0.0012)
        second = rt.migrate(ref, m1)
        with pytest.raises(MigrationFailed):
            rt.sim.run(until_event=second)

    def test_migration_to_full_machine_aborts_cleanly(self):
        spec = ClusterSpec(machines=[
            MachineSpec(name="big", cores=8, dram_bytes=4 * GiB),
            MachineSpec(name="tiny", cores=8, dram_bytes=1 * MiB),
        ])
        rt = NuRuntime(Cluster(spec))
        big, tiny = rt.cluster.machines
        ref = rt.spawn(Holder(heap=100 * MiB), big)
        rt.sim.run(until=0.001)
        ev = rt.migrate(ref, tiny)
        with pytest.raises(MigrationFailed):
            rt.sim.run(until_event=ev)
        p = ref.proclet
        assert p.machine is big
        assert p.status is ProcletStatus.RUNNING
        # and it still serves calls
        result = rt.sim.run(until_event=ref.call("ping"))
        assert result == "big"

    @pytest.mark.parametrize("delta", [+2 * MiB, -2 * MiB])
    def test_heap_change_mid_migration_moves_with_the_proclet(self, rt,
                                                              delta):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=10 * MiB), m0)
        rt.sim.run(until=0.001)
        ev = rt.migrate(ref, m1)
        rt.sim.run(until=rt.sim.now + 100e-6)  # mid-copy
        p = ref.proclet
        assert p.status is ProcletStatus.MIGRATING
        if delta > 0:
            p.heap_alloc(delta)
        else:
            p.heap_free(-delta)
        rt.sim.run(until_event=ev)
        assert p.machine is m1
        assert m0.memory.used == 0
        assert m1.memory.used == pytest.approx(p.footprint)

    def test_heap_grown_mid_migration_that_no_longer_fits_aborts(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=10 * MiB), m0)
        rt.sim.run(until=0.001)
        ev = rt.migrate(ref, m1)
        rt.sim.run(until=rt.sim.now + 100e-6)  # mid-copy
        p = ref.proclet
        p.heap_alloc(2 * MiB)
        m1.memory.reserve(m1.memory.free - 1 * MiB)
        used1 = m1.memory.used - (p.footprint - 2 * MiB)
        with pytest.raises(MigrationFailed, match="cannot fit"):
            rt.sim.run(until_event=ev)
        assert p.machine is m0
        assert p.status is ProcletStatus.RUNNING
        assert m0.memory.used == pytest.approx(p.footprint)
        assert m1.memory.used == pytest.approx(used1)

    def test_migration_metrics_recorded(self, rt):
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=1 * MiB), m0)
        rt.sim.run(until=0.001)
        rt.sim.run(until_event=rt.migrate(ref, m1))
        lats = rt.metrics.samples("runtime.migration.latency")
        assert len(lats) == 1
        assert rt.migration.migrations_completed == 1


class TestMigrationUnderContention:
    def test_migration_shares_nic_bandwidth(self, rt):
        m0, m1 = rt.cluster.machines
        # Saturate m0's NIC with a competing transfer.
        rt.fabric.transfer(m0, m1, int(0.1 * m0.nic.bandwidth))
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        lat = rt.sim.run(until_event=rt.migrate(ref, m1))
        alone = (ref.proclet.footprint / m0.nic.bandwidth)
        assert lat > alone  # slowed by the contending transfer

    def test_custom_migration_config(self):
        cluster = Cluster(symmetric_cluster(2, cores=4, dram_bytes=GiB))
        rt = NuRuntime(cluster, MigrationConfig(fixed_overhead=0.01,
                                                resume_overhead=0.01))
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(), m0)
        lat = rt.sim.run(until_event=rt.migrate(ref, m1))
        assert lat >= 0.02

    def test_bad_migration_config(self):
        with pytest.raises(ValueError):
            MigrationConfig(fixed_overhead=-1.0)


class TestMigrationRetry:
    """Transient destination failures back off and retry before the
    migration surfaces MigrationFailed (regression: the engine used to
    give up on the first OutOfMemory)."""

    def two_machines(self, **config_kwargs):
        cluster = Cluster(symmetric_cluster(2, cores=8, dram_bytes=GiB))
        return NuRuntime(cluster, MigrationConfig(**config_kwargs))

    def test_transient_oom_retries_then_succeeds(self):
        rt = self.two_machines()
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        # Fill the destination so the first reservation attempts fail...
        m1.memory.set_ballast(m1.memory.capacity - 50 * MiB)
        mig = rt.migrate(ref, m1)
        # ...and free it between the first and the last retry (default
        # backoff: attempts at +0, +200us, +600us).
        rt.sim.call_in(0.0003, m1.memory.set_ballast, 0.0)
        rt.sim.run(until_event=mig)
        assert ref.machine is m1
        assert rt.migration.migrations_retried >= 1
        assert rt.migration.migrations_completed == 1
        assert rt.migration.migrations_failed == 0
        assert rt.metrics.counter("runtime.migration.retries").total >= 1

    def test_persistent_oom_fails_after_max_retries(self):
        rt = self.two_machines(max_retries=2)
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        m1.memory.set_ballast(m1.memory.capacity)  # never freed
        with pytest.raises(MigrationFailed):
            rt.sim.run(until_event=rt.migrate(ref, m1))
        assert rt.migration.migrations_retried == 2
        assert rt.migration.migrations_failed == 1
        # Clean abort: proclet serves again from the source.
        p = ref.proclet
        assert p.machine is m0
        assert p.status is ProcletStatus.RUNNING
        assert rt.sim.run(until_event=ref.call("ping")) == "m0"

    def test_zero_retries_fails_on_first_transient(self):
        rt = self.two_machines(max_retries=0)
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        m1.memory.set_ballast(m1.memory.capacity)
        with pytest.raises(MigrationFailed):
            rt.sim.run(until_event=rt.migrate(ref, m1))
        assert rt.migration.migrations_retried == 0

    def test_backoff_is_exponential(self):
        rt = self.two_machines(max_retries=3, retry_backoff=0.001,
                               backoff_multiplier=2.0)
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        t0 = rt.sim.now
        m1.memory.set_ballast(m1.memory.capacity)
        with pytest.raises(MigrationFailed):
            rt.sim.run(until_event=rt.migrate(ref, m1))
        # Attempts at +0, +1ms, +3ms, +7ms: failure lands at t0 + 7ms.
        assert rt.sim.now == pytest.approx(t0 + 0.007, abs=1e-6)

    def test_fault_hook_injects_transient_failures(self):
        rt = self.two_machines()
        m0, m1 = rt.cluster.machines
        flips = []

        def flaky_twice(proclet, dst):
            flips.append((proclet.name, dst.name))
            return len(flips) <= 2

        rt.migration.fault_hook = flaky_twice
        ref = rt.spawn(Holder(heap=10 * MiB), m0)
        rt.sim.run(until=0.001)
        rt.sim.run(until_event=rt.migrate(ref, m1))
        assert len(flips) == 3  # two injected failures, then success
        assert rt.migration.migrations_retried == 2
        assert ref.machine is m1

    def test_fault_hook_failure_releases_reservation(self):
        """An injected failure must hand back the trial reservation, or
        repeated flakiness leaks the destination's DRAM."""
        rt = self.two_machines(max_retries=0)
        m0, m1 = rt.cluster.machines
        rt.migration.fault_hook = lambda p, d: True
        ref = rt.spawn(Holder(heap=100 * MiB), m0)
        rt.sim.run(until=0.001)
        used_before = m1.memory.used
        with pytest.raises(MigrationFailed):
            rt.sim.run(until_event=rt.migrate(ref, m1))
        assert m1.memory.used == pytest.approx(used_before)

    def test_proclet_stays_gated_while_backing_off(self):
        rt = self.two_machines(max_retries=2, retry_backoff=0.01)
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(heap=10 * MiB), m0)
        rt.sim.run(until=0.001)
        m1.memory.set_ballast(m1.memory.capacity)
        rt.sim.call_in(0.015, m1.memory.set_ballast, 0.0)
        mig = rt.migrate(ref, m1)
        rt.sim.run(until=0.005)  # inside the backoff window
        assert ref.proclet.status is ProcletStatus.MIGRATING
        call = ref.call("ping")
        rt.sim.run(until=0.008)
        assert not call.triggered  # gated during backoff
        rt.sim.run(until_event=mig)
        assert rt.sim.run(until_event=call) == "m1"


class TestMigrationQueueingSignal:
    def test_queueing_delay_restarts_after_migration(self, rt):
        """``detach`` resets service-start tracking, so after migrating
        into a saturated machine the §5 queueing-delay signal measures
        post-arrival queueing instead of sticking at zero forever."""
        m0, m1 = rt.cluster.machines
        ref = rt.spawn(Holder(), m0)
        call = ref.call("long_work", 0.050, caller_machine=m0)
        rt.sim.run(until=0.010)  # thread got service on m0
        items = list(ref.proclet._active_cpu)
        assert len(items) == 1
        it = items[0]
        assert it.started_at is not None
        # Saturate the destination with HIGH-priority work so the moved
        # thread starves on arrival.
        m1.cpu.hold(threads=8.0, priority=Priority.HIGH)
        rt.sim.run(until_event=rt.migrate(ref, m1))
        arrived = rt.sim.now
        assert it.started_at is None  # reset by detach
        rt.sim.run(until=arrived + 0.005)
        assert it.starved
        assert it.queueing_delay(rt.sim.now) == pytest.approx(
            rt.sim.now - arrived)
        assert not call.triggered
