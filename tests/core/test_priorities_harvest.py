"""Three-class priority tests: HIGH latency-critical, NORMAL Quicksand
proclets, LOW harvest work (§2's resource-harvesting comparison)."""

import pytest

from repro import Task
from repro.cluster import Priority

from ..conftest import make_qs


@pytest.fixture
def qs():
    return make_qs(enable_local_scheduler=False,
                   enable_global_scheduler=False,
                   enable_split_merge=False)


class TestThreeClasses:
    def test_strict_ordering_high_normal_low(self, qs):
        m = qs.machines[0]
        high = m.cpu.hold(threads=4.0, priority=Priority.HIGH)
        normal = m.cpu.hold(threads=3.0, priority=Priority.NORMAL)
        low = m.cpu.hold(threads=8.0, priority=Priority.LOW)
        assert high.rate == pytest.approx(4.0)
        assert normal.rate == pytest.approx(3.0)
        assert low.rate == pytest.approx(1.0)  # leftovers only

    def test_low_work_fully_preempted(self, qs):
        m = qs.machines[0]
        low = m.cpu.run(work=1.0, threads=8.0, priority=Priority.LOW)
        assert low.rate == pytest.approx(8.0)
        m.cpu.hold(threads=8.0, priority=Priority.NORMAL)
        assert low.rate == pytest.approx(0.0)

    def test_harvest_work_progresses_only_in_gaps(self, qs):
        """LOW 'harvest' work gets exactly the cycles nobody else wants —
        the §6 'resource harvesting' comparison point."""
        m = qs.machines[0]
        # NORMAL load using 6 of 8 cores.
        m.cpu.hold(threads=6.0, priority=Priority.NORMAL)
        harvest = m.cpu.run(work=1.0, threads=8.0, priority=Priority.LOW)
        assert harvest.rate == pytest.approx(2.0)
        qs.run(until_event=harvest)
        assert qs.sim.now == pytest.approx(0.5)

    def test_invocation_priority_propagates(self, qs):
        """A LOW-priority invocation's CPU work runs at LOW."""
        from repro import Proclet

        class W(Proclet):
            def work(self, ctx):
                yield ctx.cpu(0.01)
                return "done"

        m = qs.machines[0]
        ref = qs.spawn(W(), m)
        m.cpu.hold(threads=8.0, priority=Priority.NORMAL)
        ev = qs.runtime.invoke(ref, "work", caller_machine=m,
                               priority=Priority.LOW)
        qs.run(until=0.1)
        assert not ev.triggered  # starved behind NORMAL


class TestGpuProcletMigration:
    def test_gpu_proclet_migrates_between_gpu_machines(self):
        """§5 asks how to migrate resource proclets across GPUs; the
        mechanism here is the generic one — small heap, so it is fast —
        and training continues at the destination."""
        from repro import ClusterSpec, GpuSpec, MachineSpec, Quicksand
        from repro import QuicksandConfig
        from repro.units import GiB, MS

        qs = Quicksand(ClusterSpec(machines=[
            MachineSpec(name="g0", cores=4, dram_bytes=2 * GiB,
                        gpus=GpuSpec(count=4, batch_time=10 * MS)),
            MachineSpec(name="g1", cores=4, dram_bytes=2 * GiB,
                        gpus=GpuSpec(count=4, batch_time=10 * MS)),
        ]), config=QuicksandConfig(enable_local_scheduler=False,
                                   enable_global_scheduler=False,
                                   enable_split_merge=False))
        g0, g1 = qs.machines
        ref = qs.spawn_gpu(machine=g0)
        qs.run(until_event=ref.call("gp_train", "warm"))
        latency = qs.run(until_event=qs.runtime.migrate(ref.proclet, g1))
        assert latency < 1 * MS  # tiny heap -> sub-ms migration
        qs.run(until_event=ref.call("gp_train", "after"))
        assert ref.proclet.batches_trained == 2
        assert g1.gpus.batches_done == 1
