"""Crash-edge races: failures landing in the narrow windows between
request, execution, and response — plus seeded jitter in the migration
retry backoff."""

import pytest

from repro.cluster import Cluster, MachineSpec, symmetric_cluster
from repro.runtime import (
    DeadProclet,
    MachineFailed,
    MigrationConfig,
    MigrationFailed,
    NuRuntime,
    Proclet,
)
from repro.units import GiB, MiB

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class Echo(Proclet):
    def ping(self, ctx):
        yield ctx.cpu(1e-6)
        return ctx.machine.name


class TestResponseTransferRace:
    """The source machine dies while a bulk response is on the wire."""

    def test_caller_sees_failure_not_hang(self, qs):
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        qs.run(until_event=ref.call("mp_put", 0, 100 * MiB, "bulk"))
        # 100 MiB at 12.5 GB/s is ~8 ms on the wire; kill the source
        # 2 ms in, with the response transfer mid-flight.
        ev = ref.call("mp_get", 0, caller_machine=m1)
        qs.run(until=qs.sim.now + 2e-3)
        qs.runtime.fail_machine(m0)
        with pytest.raises((DeadProclet, MachineFailed)):
            qs.run(until_event=ev)

    def test_cluster_stays_consistent_after_the_race(self, qs):
        from repro.chaos import InvariantChecker

        checker = InvariantChecker(qs.runtime).attach(qs.sim)
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        qs.run(until_event=ref.call("mp_put", 0, 100 * MiB, "bulk"))
        ev = ref.call("mp_get", 0, caller_machine=m1)
        qs.run(until=qs.sim.now + 2e-3)
        qs.runtime.fail_machine(m0)
        with pytest.raises((DeadProclet, MachineFailed)):
            qs.run(until_event=ev)
        qs.run(until=qs.sim.now + 0.01)
        assert checker.checks > 0
        checker.check()  # DRAM ledgers balanced despite the mid-wire kill

    def test_request_payload_race(self, qs):
        """Same window on the *request* leg: a bulk put whose source
        (the caller's machine) dies mid-transfer."""
        m0, m1 = qs.machines
        ref = qs.spawn_memory(machine=m0)
        ev = ref.call("mp_put", 0, 100 * MiB, "bulk", caller_machine=m1,
                      req_bytes=100 * MiB)
        qs.run(until=qs.sim.now + 2e-3)
        qs.runtime.fail_machine(m1)
        with pytest.raises((DeadProclet, MachineFailed)):
            qs.run(until_event=ev)
        # The target proclet survived its caller and still serves.
        assert qs.run(until_event=ref.call("mp_contains", 0)) is not None


class TestRestoreSpawnRace:
    """restore_machine immediately followed by spawns targeting it."""

    def test_spawn_lands_on_just_restored_machine(self, qs):
        m0, m1 = qs.machines
        qs.runtime.fail_machine(m0)
        qs.runtime.restore_machine(m0)
        ref = qs.spawn(Echo(), m0)  # same tick as the restore
        assert ref.machine is m0
        assert qs.run(until_event=ref.call("ping")) == "m0"

    def test_restored_machine_memory_starts_clean(self, qs):
        m0, _ = qs.machines
        victim = qs.spawn_memory(machine=m0)
        qs.run(until_event=victim.call("mp_put", 0, 200 * MiB, "x"))
        qs.runtime.fail_machine(m0)
        qs.runtime.restore_machine(m0)
        fresh = qs.spawn_memory(machine=m0)
        qs.run(until_event=fresh.call("mp_put", 0, 1 * MiB, "y"))
        assert m0.memory.used == pytest.approx(
            fresh.proclet.footprint)

    def test_detector_lags_but_explicit_spawn_wins(self):
        """With recovery enabled, a restored-but-not-yet-probed machine
        is still excluded from automatic placement (the detector has to
        see a heartbeat first) — but explicit spawns work immediately."""
        from repro.ft import MachineHealth, RecoveryConfig

        qs = make_qs(enable_local_scheduler=False,
                     enable_global_scheduler=False,
                     enable_split_merge=False)
        manager = qs.enable_recovery(RecoveryConfig(
            heartbeat_interval=1e-3, suspect_after=2, confirm_after=4))
        m0, m1 = qs.machines
        qs.runtime.fail_machine(m0)
        qs.run(until=0.01)
        assert manager.detector.state(m0) is MachineHealth.DEAD
        qs.runtime.restore_machine(m0)
        # Same tick: the detector has not probed yet.
        assert manager.detector.state(m0) is MachineHealth.DEAD
        ref = qs.spawn(Echo(), m0)
        assert qs.run(until_event=ref.call("ping")) == "m0"
        # Next heartbeats mark it alive and placement readmits it.
        qs.run(until=qs.sim.now + 0.01)
        assert manager.detector.state(m0) is MachineHealth.ALIVE
        assert m0 in qs.eligible_machines()


class TestMigrationRetryJitter:
    """Seeded jitter on the migration retry backoff: off by default
    (bit-identical trajectories), deterministic per seed when on."""

    def _flaky_run(self, jitter, seed=7, failures=3):
        cluster = Cluster(symmetric_cluster(2, cores=8,
                                            dram_bytes=1 * GiB,
                                            seed=seed))
        rt = NuRuntime(cluster, MigrationConfig(
            retry_backoff=1e-3, backoff_multiplier=2.0,
            retry_jitter=jitter, max_retries=failures + 1))
        m0, m1 = rt.cluster.machines

        class Holder(Proclet):
            def on_start(self, ctx):
                ctx.alloc(10 * MiB)

        count = [0]

        def flaky(proclet, dst):
            count[0] += 1
            return count[0] <= failures

        rt.migration.fault_hook = flaky
        ref = rt.spawn(Holder(), m0)
        rt.sim.run(until=0.001)
        rt.sim.run(until_event=rt.migrate(ref.proclet, m1))
        return rt.sim.now

    def test_zero_jitter_is_pure_exponential(self):
        # Attempts at +0, +1ms, +3ms, +7ms after the first failure.
        base = self._flaky_run(jitter=0.0)
        assert base == self._flaky_run(jitter=0.0)

    def test_jitter_perturbs_the_schedule(self):
        assert self._flaky_run(jitter=0.5) > self._flaky_run(jitter=0.0)

    def test_jitter_is_deterministic_per_seed(self):
        a = self._flaky_run(jitter=0.5, seed=7)
        b = self._flaky_run(jitter=0.5, seed=7)
        assert a == b

    def test_jitter_varies_with_seed(self):
        a = self._flaky_run(jitter=0.5, seed=7)
        b = self._flaky_run(jitter=0.5, seed=8)
        assert a != b

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            MigrationConfig(retry_jitter=-0.1)
